package mcs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// referenceJSON is the encoding EncodeJSON must reproduce byte for byte:
// the schema structs through encoding/json.
func referenceJSON(ds *Dataset) ([]byte, error) {
	out := datasetJSON{
		Version:  datasetSchemaVersion,
		Tasks:    make([]taskJSON, len(ds.Tasks)),
		Accounts: make([]accountJSON, len(ds.Accounts)),
	}
	for i, t := range ds.Tasks {
		out.Tasks[i] = taskJSON{ID: t.ID, Name: t.Name, X: t.X, Y: t.Y}
	}
	for i := range ds.Accounts {
		a := &ds.Accounts[i]
		aj := accountJSON{ID: a.ID, Fingerprint: a.Fingerprint}
		for _, o := range a.Observations {
			aj.Observations = append(aj.Observations, observationJSON{Task: o.Task, Value: o.Value, Time: o.Time})
		}
		out.Accounts[i] = aj
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(out)
	return buf.Bytes(), err
}

// checkMatchesReference fails unless EncodeJSON and referenceJSON agree:
// the same bytes, or both an error.
func checkMatchesReference(t *testing.T, ds *Dataset) {
	t.Helper()
	want, werr := referenceJSON(ds)
	var got bytes.Buffer
	gerr := ds.EncodeJSON(&got)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("EncodeJSON error %v, encoding/json error %v", gerr, werr)
	}
	if werr == nil && !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("EncodeJSON differs from encoding/json:\n got %q\nwant %q", got.Bytes(), want)
	}
}

// TestEncodeJSONMatchesEncodingJSON covers what a decoded dataset cannot
// reach, so FuzzDecodeJSON never tries it: invalid UTF-8 and raw control
// characters in strings, floats at the format switches, NaN and ±Inf, and
// times RFC 3339 cannot express.
func TestEncodeJSONMatchesEncodingJSON(t *testing.T) {
	base := time.Date(2026, 7, 1, 12, 30, 15, 123456789, time.UTC)
	strs := []string{
		"", "plain", "<script>&amp;</script>", "a\u2028b\u2029c", "bad\xff\xfeutf8",
		"cut\xe2\x80", "\x00\x01\x1f\b\f\n\r\t\"\\", "\x7f", "é日本🛰", "\xed\xa0\x80",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -84.48, 123.456, 1e-6, 9.999999e-7, 1e-7, 1.5e-7, -2e-10,
		1e20, 9.99e20, 1e21, -1e21, 1.2345e25, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	}
	times := []time.Time{
		{}, base, base.Local(), time.Now(), time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		base.In(time.FixedZone("", 23*3600+59*60)), base.In(time.FixedZone("", -(5*3600 + 30))),
		base.In(time.FixedZone("", 30)),
	}
	for _, s := range strs {
		ds := NewDataset(1)
		ds.Tasks[0].Name = s
		ds.AddAccount(Account{ID: s, Observations: []Observation{{Task: 0, Value: 1, Time: base}}})
		checkMatchesReference(t, ds)
	}
	for _, f := range floats {
		ds := NewDataset(1)
		ds.Tasks[0].X, ds.Tasks[0].Y = f, -f
		ds.AddAccount(Account{ID: "a", Observations: []Observation{{Task: 0, Value: f, Time: base}}, Fingerprint: []float64{f, 1, f}})
		checkMatchesReference(t, ds)
	}
	for _, tm := range times {
		ds := NewDataset(1)
		ds.AddAccount(Account{ID: "a", Observations: []Observation{{Task: 0, Value: 1, Time: tm}}})
		checkMatchesReference(t, ds)
	}
	// Each of these is an error on both sides.
	bad := []func(ds *Dataset){
		func(ds *Dataset) { ds.Tasks[0].X = math.NaN() },
		func(ds *Dataset) { ds.Tasks[0].Y = math.Inf(1) },
		func(ds *Dataset) { ds.Accounts[0].Observations[0].Value = math.Inf(-1) },
		func(ds *Dataset) { ds.Accounts[0].Fingerprint = []float64{1, math.NaN()} },
		func(ds *Dataset) { ds.Accounts[0].Observations[0].Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
		func(ds *Dataset) { ds.Accounts[0].Observations[0].Time = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) },
		func(ds *Dataset) { ds.Accounts[0].Observations[0].Time = base.In(time.FixedZone("", 24*3600)) },
		func(ds *Dataset) { ds.Accounts[0].Observations[0].Time = base.In(time.FixedZone("", -100*3600)) },
	}
	for i, mutate := range bad {
		ds := NewDataset(1)
		ds.AddAccount(Account{ID: "a", Observations: []Observation{{Task: 0, Value: 1, Time: base}}})
		mutate(ds)
		if _, err := ds.AppendJSON(nil); err == nil {
			t.Errorf("bad case %d encoded without error", i)
		}
		checkMatchesReference(t, ds)
	}
	// Shapes: no tasks, no accounts, an account with neither observations
	// nor a fingerprint, and the sample campaign.
	checkMatchesReference(t, &Dataset{})
	empty := NewDataset(2)
	empty.AddAccount(Account{ID: "idle"})
	checkMatchesReference(t, empty)
	checkMatchesReference(t, sampleDataset())
}

// TestDecodeJSONReadsIndented: files written by earlier versions, which
// indented their JSON, still decode.
func TestDecodeJSONReadsIndented(t *testing.T) {
	compact, err := referenceJSON(sampleDataset())
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(&indented)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesReference(t, back)
	var again bytes.Buffer
	if err := back.EncodeJSON(&again); err != nil || !bytes.Equal(again.Bytes(), compact) {
		t.Fatalf("indented file decoded to a different dataset (err %v)", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ds := sampleDataset()
	ds.Accounts[0].Fingerprint = []float64{1.5, -2.5, 3}
	ds.Accounts[1].Fingerprint = []float64{0, 1, 2}
	ds.Tasks[0].Name = "POI-A"
	ds.Tasks[0].X = 12.5
	ds.Tasks[0].Y = -3

	var buf bytes.Buffer
	if err := ds.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != ds.NumTasks() || back.NumAccounts() != ds.NumAccounts() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", back.NumTasks(), back.NumAccounts(), ds.NumTasks(), ds.NumAccounts())
	}
	if back.Tasks[0].Name != "POI-A" || back.Tasks[0].X != 12.5 || back.Tasks[0].Y != -3 {
		t.Errorf("task 0 = %+v", back.Tasks[0])
	}
	for ai := range ds.Accounts {
		want := ds.Accounts[ai]
		got := back.Accounts[ai]
		if got.ID != want.ID {
			t.Fatalf("account %d ID %q vs %q", ai, got.ID, want.ID)
		}
		if len(got.Observations) != len(want.Observations) {
			t.Fatalf("account %d observation count", ai)
		}
		for k := range want.Observations {
			if got.Observations[k].Value != want.Observations[k].Value ||
				!got.Observations[k].Time.Equal(want.Observations[k].Time) {
				t.Errorf("account %d obs %d differs", ai, k)
			}
		}
		if len(got.Fingerprint) != len(want.Fingerprint) {
			t.Errorf("account %d fingerprint length", ai)
		}
	}
}

func TestDecodeJSONRejectsGarbage(t *testing.T) {
	if _, err := DecodeJSON(strings.NewReader("{nope")); err == nil {
		t.Error("garbage should error")
	}
	if _, err := DecodeJSON(strings.NewReader(`{"version": 99, "tasks": [], "accounts": []}`)); err == nil {
		t.Error("wrong schema version should error")
	}
	// Structurally valid JSON but semantically invalid dataset.
	bad := `{"version":1,"tasks":[{"id":0,"name":"T1"}],"accounts":[{"id":"a","observations":[{"task":5,"value":1,"time":"2026-07-01T00:00:00Z"}]}]}`
	if _, err := DecodeJSON(strings.NewReader(bad)); err == nil {
		t.Error("out-of-range task should be rejected by validation")
	}
}

func TestEncodeJSONEmptyDataset(t *testing.T) {
	var buf bytes.Buffer
	if err := NewDataset(2).EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != 2 || back.NumAccounts() != 0 {
		t.Errorf("shape = %d tasks, %d accounts", back.NumTasks(), back.NumAccounts())
	}
}
