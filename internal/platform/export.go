// WAL tail export for online resharding (POST /v1/repl/export): the
// migration coordinator seeds a joining replica group from a filtered
// dataset read, then streams the donor's WAL tail — decoded records, not
// raw frames — until the joiner has everything the ring moved to it. The
// records come back decoded because the consumer is not a follower of
// this WAL: the joiner journals them under its own sequence numbers via
// the regular Submit/fingerprint API, and the (account, task) duplicate
// guard makes re-delivery after a crash or resume harmless.
package platform

import (
	"context"
	"encoding/json"
	"fmt"
	"time"
)

// ExportRecord is one decoded WAL record on the export wire. It mirrors
// walRecord minus the internals a foreign consumer must not depend on:
// Seq is the donor's sequence number (the resume cursor), everything else
// is the mutation itself.
type ExportRecord struct {
	Seq      uint64    `json:"seq"`
	Op       string    `json:"op"`
	Account  string    `json:"account"`
	Task     int       `json:"task,omitempty"`
	Value    float64   `json:"value,omitempty"`
	Time     time.Time `json:"time"`
	Features []float64 `json:"features,omitempty"`
}

// Export operation tags (ExportRecord.Op). These are the WAL's own tags;
// exported here so the coordinator can switch on them without knowing the
// WAL encoding.
const (
	ExportOpSubmit       = opSubmit
	ExportOpFingerprint  = opFingerprint
	ExportOpFence        = opFence
	ExportOpUnfencePurge = opUnfencePurge
)

// ExportBatch is the export response: records in (FromSeq, NextSeq],
// the donor's durable high-water mark (NextSeq == DurableSeq means the
// consumer is caught up), and the compaction signal. SnapshotNeeded means
// the requested range is older than the frames the donor keeps (they
// reach back one compaction before its WAL, and a restarted donor keeps
// only its WAL) — the consumer must re-seed from a dataset read and
// restart the tail from the current DurableSeq.
type ExportBatch struct {
	Records        []ExportRecord `json:"records,omitempty"`
	NextSeq        uint64         `json:"next_seq"`
	DurableSeq     uint64         `json:"durable_seq"`
	SnapshotNeeded bool           `json:"snapshot_needed,omitempty"`
	// Epoch is the donor's replication epoch at serve time. A failover
	// promotes a follower whose durable history may end a few records
	// short of the old primary's; the new lineage then reuses those
	// sequence numbers for different records. A cursor minted under one
	// epoch is therefore meaningless under another — consumers must
	// treat an epoch change exactly like SnapshotNeeded and re-seed.
	Epoch uint64 `json:"epoch"`
}

// ExportRequest is the POST /v1/repl/export body.
type ExportRequest struct {
	// FromSeq is the exclusive lower bound: records strictly after it are
	// returned.
	FromSeq uint64 `json:"from_seq"`
	// MaxRecords bounds the batch (0 = server default).
	MaxRecords int `json:"max_records,omitempty"`
}

// Exporter is the capability interface for the migration tail: a store
// whose durable history can be read back as decoded records by sequence
// range. LocalStore implements it when durable; RemoteStore forwards it
// over the wire. Works on followers too — after a donor-primary failover
// the coordinator resumes the tail from the promoted follower, whose WAL
// holds the same records at the same sequence numbers.
type Exporter interface {
	ExportSince(ctx context.Context, from uint64, max int) (ExportBatch, error)
}

// LocalStore implements Exporter (durable stores only).
var _ Exporter = (*LocalStore)(nil)

// defaultExportBatch bounds an export batch when the request leaves
// MaxRecords zero.
const defaultExportBatch = 1024

// ExportSince returns the decoded durable WAL records strictly after
// from, at most max of them (0 = defaultExportBatch). On a store with no
// journal it fails with ErrUnimplemented: there is no durable history to
// export. Unlike client reads this path is NOT gated by follower
// staleness — it reports exactly how far its history goes (DurableSeq),
// and the caller owns the decision of whether that is far enough.
func (s *LocalStore) ExportSince(ctx context.Context, from uint64, max int) (ExportBatch, error) {
	if err := ctx.Err(); err != nil {
		return ExportBatch{}, fmt.Errorf("%w: %v", ErrOverloaded, err)
	}
	if s.journal == nil {
		return ExportBatch{}, fmt.Errorf("%w: WAL export needs a durable store", ErrUnimplemented)
	}
	if max <= 0 {
		max = defaultExportBatch
	}
	frames, snapNeeded, err := s.journal.framesSince(from, max)
	if err != nil {
		return ExportBatch{}, err
	}
	batch := ExportBatch{
		NextSeq:        from,
		DurableSeq:     s.journal.durableSeq(),
		SnapshotNeeded: snapNeeded,
		Epoch:          s.journal.Epoch(),
	}
	if snapNeeded {
		return batch, nil
	}
	for _, f := range frames {
		var rec walRecord
		if err := json.Unmarshal(f.Payload, &rec); err != nil {
			// framesSince serves only CRC-valid durable frames; an
			// undecodable one means the WAL and this code disagree.
			return ExportBatch{}, fmt.Errorf("%w: export frame %d undecodable: %v", ErrDurability, f.Seq, err)
		}
		batch.Records = append(batch.Records, ExportRecord{
			Seq: rec.Seq, Op: rec.Op, Account: rec.Account,
			Task: rec.Task, Value: rec.Value, Time: rec.Time, Features: rec.Features,
		})
		batch.NextSeq = rec.Seq
	}
	return batch, nil
}
