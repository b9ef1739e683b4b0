package mcs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
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

// EncodeJSON writes the dataset to w as versioned JSON.
func (ds *Dataset) EncodeJSON(w io.Writer) error {
	out := datasetJSON{Version: datasetSchemaVersion}
	out.Tasks = make([]taskJSON, len(ds.Tasks))
	for i, t := range ds.Tasks {
		out.Tasks[i] = taskJSON{ID: t.ID, Name: t.Name, X: t.X, Y: t.Y}
	}
	out.Accounts = make([]accountJSON, len(ds.Accounts))
	for i := range ds.Accounts {
		a := &ds.Accounts[i]
		aj := accountJSON{ID: a.ID}
		for _, o := range a.Observations {
			aj.Observations = append(aj.Observations, observationJSON{Task: o.Task, Value: o.Value, Time: o.Time})
		}
		if len(a.Fingerprint) > 0 {
			aj.Fingerprint = append([]float64(nil), a.Fingerprint...)
		}
		out.Accounts[i] = aj
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("mcs: encode dataset: %w", err)
	}
	return nil
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
