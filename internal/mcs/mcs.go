// Package mcs defines the mobile-crowdsensing data model shared by the
// truth-discovery algorithms, the account grouping methods, and the
// Sybil-resistant framework: tasks, accounts, timestamped observations, and
// the campaign dataset the platform aggregates (§III-A of the paper).
package mcs

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Task is one sensing task: measure a phenomenon (e.g. Wi-Fi signal
// strength in dBm) at a point of interest.
type Task struct {
	// ID is the task's index in its Dataset; assigned by the Dataset.
	ID int
	// Name is a human-readable label such as "POI-3".
	Name string
	// X, Y locate the task's POI in meters in the campaign's local frame.
	// They drive the mobility and radio simulators; the aggregation
	// algorithms never look at them.
	X, Y float64
}

// Observation is one sensing report: a numeric value for a task at a time.
type Observation struct {
	// Task is the task index within the Dataset.
	Task int
	// Value is the sensed numeric datum (e.g. RSSI in dBm).
	Value float64
	// Time is the submission timestamp. The adversary model assumes
	// timestamps cannot be fabricated (§III-C), so grouping methods may
	// trust them.
	Time time.Time
}

// Account is one platform account together with everything the platform
// collected from it: its sensing observations and the motion-sensor
// fingerprint captured at sign-in.
type Account struct {
	// ID is the account name, unique within a Dataset.
	ID string
	// Observations holds the account's reports, at most one per task
	// (each account may submit at most one datum per task, §III-C).
	Observations []Observation
	// Fingerprint is the feature vector extracted from the sign-in motion
	// capture; empty when fingerprinting is unavailable.
	Fingerprint []float64
}

// TaskSet returns the set of task indices the account reported on.
func (a *Account) TaskSet() map[int]bool {
	s := make(map[int]bool, len(a.Observations))
	for _, o := range a.Observations {
		s[o.Task] = true
	}
	return s
}

// SortedObservations returns the account's observations ordered by
// timestamp (stable on ties by task index). The receiver is not modified.
func (a *Account) SortedObservations() []Observation {
	obs := make([]Observation, len(a.Observations))
	copy(obs, a.Observations)
	SortObservations(obs)
	return obs
}

// SortObservations sorts obs in place in SortedObservations' order: by
// timestamp, then task index, stable on ties.
func SortObservations(obs []Observation) {
	slices.SortStableFunc(obs, func(a, b Observation) int {
		if c := a.Time.Compare(b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Task, b.Task)
	})
}

// Dataset is a complete crowdsensing campaign: the published tasks and the
// accounts (with their data) that participated. It is the input to every
// aggregation algorithm in this repository.
type Dataset struct {
	Tasks    []Task
	Accounts []Account
}

// NewDataset creates a dataset with m unnamed tasks.
func NewDataset(m int) *Dataset {
	ds := &Dataset{Tasks: make([]Task, m)}
	for j := range ds.Tasks {
		ds.Tasks[j] = Task{ID: j, Name: fmt.Sprintf("T%d", j+1)}
	}
	return ds
}

// AddAccount appends an account and returns its index.
func (ds *Dataset) AddAccount(a Account) int {
	ds.Accounts = append(ds.Accounts, a)
	return len(ds.Accounts) - 1
}

// NumTasks returns the number of tasks.
func (ds *Dataset) NumTasks() int { return len(ds.Tasks) }

// NumAccounts returns the number of accounts.
func (ds *Dataset) NumAccounts() int { return len(ds.Accounts) }

// Validate checks structural invariants: task indices in range, at most one
// observation per (account, task), unique account IDs, and fingerprints of
// consistent length (all empty or all equal length).
func (ds *Dataset) Validate() error {
	ids := make(map[string]bool, len(ds.Accounts))
	fpLen := -1
	for ai := range ds.Accounts {
		a := &ds.Accounts[ai]
		if a.ID == "" {
			return fmt.Errorf("mcs: account %d has empty ID", ai)
		}
		if ids[a.ID] {
			return fmt.Errorf("mcs: duplicate account ID %q", a.ID)
		}
		ids[a.ID] = true
		seen := make(map[int]bool, len(a.Observations))
		for _, o := range a.Observations {
			if o.Task < 0 || o.Task >= len(ds.Tasks) {
				return fmt.Errorf("mcs: account %q observation task %d out of range [0,%d)", a.ID, o.Task, len(ds.Tasks))
			}
			if seen[o.Task] {
				return fmt.Errorf("mcs: account %q has multiple observations for task %d", a.ID, o.Task)
			}
			seen[o.Task] = true
		}
		if len(a.Fingerprint) > 0 {
			if fpLen == -1 {
				fpLen = len(a.Fingerprint)
			} else if len(a.Fingerprint) != fpLen {
				return fmt.Errorf("mcs: account %q fingerprint length %d != %d", a.ID, len(a.Fingerprint), fpLen)
			}
		}
	}
	return nil
}

// Submitters returns, for each task index, the indices of accounts that
// reported on it (the paper's U_j), in ascending account order.
func (ds *Dataset) Submitters() [][]int {
	subs := make([][]int, len(ds.Tasks))
	for ai := range ds.Accounts {
		for _, o := range ds.Accounts[ai].Observations {
			if o.Task >= 0 && o.Task < len(subs) {
				subs[o.Task] = append(subs[o.Task], ai)
			}
		}
	}
	return subs
}

// Value returns account ai's reported value for task j and whether one
// exists.
func (ds *Dataset) Value(ai, j int) (float64, bool) {
	if ai < 0 || ai >= len(ds.Accounts) {
		return 0, false
	}
	for _, o := range ds.Accounts[ai].Observations {
		if o.Task == j {
			return o.Value, true
		}
	}
	return 0, false
}

// Activeness returns |T_i| / m for account ai (Eq. 9), the fraction of
// tasks the account reported on.
func (ds *Dataset) Activeness(ai int) float64 {
	if ai < 0 || ai >= len(ds.Accounts) || len(ds.Tasks) == 0 {
		return 0
	}
	return float64(len(ds.Accounts[ai].TaskSet())) / float64(len(ds.Tasks))
}

// TimeSpan returns the earliest and latest observation timestamps across
// all accounts. ok is false when the dataset holds no observations.
func (ds *Dataset) TimeSpan() (first, last time.Time, ok bool) {
	for ai := range ds.Accounts {
		for _, o := range ds.Accounts[ai].Observations {
			if !ok {
				first, last, ok = o.Time, o.Time, true
				continue
			}
			if o.Time.Before(first) {
				first = o.Time
			}
			if o.Time.After(last) {
				last = o.Time
			}
		}
	}
	return first, last, ok
}

// ErrNoObservations is returned by aggregation helpers when a dataset
// contains no data at all.
var ErrNoObservations = errors.New("mcs: dataset has no observations")
