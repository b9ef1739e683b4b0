package mcs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// JSON wire format for campaign datasets, used by the platform's export
// endpoint and by applications that archive campaigns. The schema is
// stable: add fields, never repurpose them.

type datasetJSON struct {
	Version  int           `json:"version"`
	Tasks    []taskJSON    `json:"tasks"`
	Accounts []accountJSON `json:"accounts"`
}

type taskJSON struct {
	ID   int     `json:"id"`
	Name string  `json:"name"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

type accountJSON struct {
	ID           string            `json:"id"`
	Observations []observationJSON `json:"observations,omitempty"`
	Fingerprint  []float64         `json:"fingerprint,omitempty"`
}

type observationJSON struct {
	Task  int       `json:"task"`
	Value float64   `json:"value"`
	Time  time.Time `json:"time"`
}

// datasetSchemaVersion identifies the current wire format.
const datasetSchemaVersion = 1

// EncodeJSON writes the dataset to w as versioned JSON on one line: the
// bytes json.NewEncoder(w).Encode writes for the schema structs above.
func (ds *Dataset) EncodeJSON(w io.Writer) error {
	b, err := ds.AppendJSON(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// AppendJSON appends the dataset's JSON, as EncodeJSON writes it without
// the final newline, to dst. It encodes in one pass and matches
// encoding/json byte for byte: HTML-safe string escaping, the float
// format switch at 1e-6 and 1e21, and the errors for NaN, ±Inf and times
// RFC 3339 cannot express.
func (ds *Dataset) AppendJSON(dst []byte) ([]byte, error) {
	e := &encoder{b: append(dst, `{"version":`...)}
	e.int(datasetSchemaVersion)
	e.raw(`,"tasks":[`)
	for i, t := range ds.Tasks {
		e.comma(i)
		e.raw(`{"id":`)
		e.int(t.ID)
		e.raw(`,"name":`)
		e.str(t.Name)
		e.raw(`,"x":`)
		e.float(t.X)
		e.raw(`,"y":`)
		e.float(t.Y)
		e.raw(`}`)
	}
	e.raw(`],"accounts":[`)
	for i := range ds.Accounts {
		a := &ds.Accounts[i]
		e.comma(i)
		e.raw(`{"id":`)
		e.str(a.ID)
		if len(a.Observations) > 0 {
			e.raw(`,"observations":[`)
			for k, o := range a.Observations {
				e.comma(k)
				e.raw(`{"task":`)
				e.int(o.Task)
				e.raw(`,"value":`)
				e.float(o.Value)
				e.raw(`,"time":`)
				e.time(o.Time)
				e.raw(`}`)
			}
			e.raw(`]`)
		}
		if len(a.Fingerprint) > 0 {
			e.raw(`,"fingerprint":[`)
			for k, v := range a.Fingerprint {
				e.comma(k)
				e.float(v)
			}
			e.raw(`]`)
		}
		e.raw(`}`)
	}
	e.raw(`]}`)
	if e.err != nil {
		return nil, fmt.Errorf("mcs: encode dataset: %w", e.err)
	}
	return e.b, nil
}

// encoder appends JSON values to b. A value encoding/json would refuse
// sets err, which the caller checks once at the end.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

// comma separates element i of a list from the one before it.
func (e *encoder) comma(i int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
}

// float writes f as encoding/json does: the shortest decimal that
// round-trips, in exponent form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent written without its leading zero.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.err = fmt.Errorf("unsupported value %v", f)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1] // e-07 → e-7
		e.b = e.b[:n-1]
	}
}

// time writes t quoted in RFC 3339 with nanoseconds, refusing what
// Time.MarshalJSON refuses: a year outside [0, 9999] and a zone offset
// of 24 hours or more.
func (e *encoder) time(t time.Time) {
	b := append(e.b, '"')
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	n := len(b)
	switch {
	case b[n0+len("9999")] != '-':
		e.err = fmt.Errorf("time %v: year outside of range [0,9999]", t)
	case b[n-1] != 'Z' && ('0' <= b[n-6] && b[n-6] <= '9' || 10*(b[n-5]-'0')+b[n-4]-'0' >= 24):
		e.err = fmt.Errorf("time %v: timezone hour outside of range [0,23]", t)
	}
	e.b = append(b, '"')
}

// str writes s quoted. IDs and names are plain ASCII almost always, and
// those are copied as they are; any other string is quoted by
// encoding/json itself, so its escaping (HTML characters, control
// characters, invalid UTF-8, U+2028 and U+2029) is encoding/json's.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(append(append(e.b, '"'), s...), '"')
}

// DecodeJSON reads a dataset previously written by EncodeJSON and
// validates it.
func DecodeJSON(r io.Reader) (*Dataset, error) {
	ds, err := DecodeJSONUnvalidated(r)
	if err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("mcs: decoded dataset invalid: %w", err)
	}
	return ds, nil
}

// DecodeJSONUnvalidated is DecodeJSON without the final Validate, for a
// caller that repairs what it knows to be stale before validating.
func DecodeJSONUnvalidated(r io.Reader) (*Dataset, error) {
	var in datasetJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("mcs: decode dataset: %w", err)
	}
	if in.Version != datasetSchemaVersion {
		return nil, fmt.Errorf("mcs: unsupported dataset schema version %d (want %d)", in.Version, datasetSchemaVersion)
	}
	ds := &Dataset{Tasks: make([]Task, len(in.Tasks))}
	for i, t := range in.Tasks {
		ds.Tasks[i] = Task{ID: t.ID, Name: t.Name, X: t.X, Y: t.Y}
	}
	for _, aj := range in.Accounts {
		a := Account{ID: aj.ID}
		for _, o := range aj.Observations {
			a.Observations = append(a.Observations, Observation{Task: o.Task, Value: o.Value, Time: o.Time})
		}
		if len(aj.Fingerprint) > 0 {
			a.Fingerprint = append([]float64(nil), aj.Fingerprint...)
		}
		ds.Accounts = append(ds.Accounts, a)
	}
	return ds, nil
}
