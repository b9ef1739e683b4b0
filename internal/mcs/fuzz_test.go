package mcs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzDecodeJSON checks that arbitrary input never panics the decoder,
// that anything it accepts is a valid dataset that round-trips, and that
// EncodeJSON writes the same bytes for it as encoding/json.
func FuzzDecodeJSON(f *testing.F) {
	var buf bytes.Buffer
	ds := NewDataset(2)
	ds.AddAccount(Account{ID: "a", Observations: []Observation{{Task: 0, Value: 1}}})
	if err := ds.EncodeJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	var indented bytes.Buffer
	if err := json.Indent(&indented, buf.Bytes(), "", "  "); err != nil {
		f.Fatal(err)
	}
	f.Add(indented.String())
	f.Add(`{"version":1,"tasks":[{"id":0,"name":"<\u2028&>","x":1e-7,"y":-0}],"accounts":[{"id":"\u0007\ud800","observations":[{"task":0,"value":1e21,"time":"0000-01-01T00:00:00.5+23:59"}],"fingerprint":[5e-324]}]}`)
	f.Add(`{"version":1,"tasks":[],"accounts":[]}`)
	f.Add(`{"version":2}`)
	f.Add(`not json at all`)
	f.Add(`{"version":1,"tasks":[{"id":0}],"accounts":[{"id":""}]}`)

	f.Fuzz(func(t *testing.T, input string) {
		ds, err := DecodeJSON(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid dataset: %v", err)
		}
		var out bytes.Buffer
		if err := ds.EncodeJSON(&out); err != nil {
			t.Fatalf("accepted dataset failed to re-encode: %v", err)
		}
		if want, err := referenceJSON(ds); err != nil || !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("EncodeJSON differs from encoding/json (err %v):\n got %q\nwant %q", err, out.Bytes(), want)
		}
		back, err := DecodeJSON(&out)
		if err != nil {
			t.Fatalf("re-encoded dataset failed to decode: %v", err)
		}
		if back.NumTasks() != ds.NumTasks() || back.NumAccounts() != ds.NumAccounts() {
			t.Fatal("round-trip changed the dataset shape")
		}
	})
}
