package experiment

import (
	"encoding/json"
	"fmt"
	"sync"

	"rtdvs/internal/checkpoint"
)

// The journal's first record is the SweepHeader (see shard.go): every
// parameter that determines a sweep's per-job results. Resume refuses a
// journal whose header fingerprint differs — silently mixing results
// from a differently-parameterized sweep would corrupt the fold while
// looking like a successful resume.

// harnessRecord journals one completed (utilization, set) job: the
// value (total energy, or average power in Figures 16 and 17) and miss
// count of every policy, plus the theoretical bound. Floats survive the
// JSON round trip exactly (Go emits the shortest representation that
// parses back to the same float64), which is what makes a resumed sweep
// bit-identical to an uninterrupted one.
type harnessRecord struct {
	UI     int       `json:"ui"`
	SI     int       `json:"si"`
	Energy []float64 `json:"energy"`
	Misses []int     `json:"misses"`
	Bnd    float64   `json:"bnd"`
}

// journal serializes concurrent workers' appends onto one checkpoint
// log. A nil *journal — a panel run without a Checkpoint path — records
// nothing.
type journal struct {
	mu   sync.Mutex
	log  *checkpoint.Log
	sets int
}

// openJournal opens cfg.Checkpoint — resuming the existing journal when
// cfg.Resume is set, starting fresh otherwise — verifies that its header
// is the panel's (kind, cfg, policies), and replays completed job
// records into outs, marking them done. Without a Checkpoint path it
// opens no journal. cfg must be normalized.
func openJournal(cfg Config, kind string, policies []string, outs []harnessOut, done []bool) (j *journal, err error) {
	path := cfg.Checkpoint
	if path == "" {
		return nil, nil
	}
	want := sweepHeader(cfg, policies)
	want.Kind = kind
	var log *checkpoint.Log
	var records [][]byte
	if cfg.Resume {
		log, records, err = checkpoint.Open(path)
	} else {
		log, err = checkpoint.Create(path)
	}
	if err != nil {
		return nil, err
	}
	j = &journal{log: log, sets: want.Sets}
	defer func() {
		if err != nil {
			log.Close()
			j = nil
		}
	}()
	if len(records) == 0 {
		// A fresh journal, or one that never got its header (created but
		// crashed before the first sync, or simply absent): start it now.
		return j, j.append(want)
	}
	var got SweepHeader
	if err := json.Unmarshal(records[0], &got); err != nil {
		return nil, fmt.Errorf("experiment: checkpoint %s: bad header: %w", path, err)
	}
	// Compare by fingerprint — the same definition of "same
	// configuration" the distributed-sweep result cache keys on.
	gotFP, err := checkpoint.Fingerprint(got)
	if err != nil {
		return nil, err
	}
	wantFP, err := checkpoint.Fingerprint(want)
	if err != nil {
		return nil, err
	}
	if gotFP != wantFP {
		return nil, fmt.Errorf("experiment: checkpoint %s was written by a differently-parameterized sweep; "+
			"use a fresh checkpoint file (journal %+v, sweep %+v)", path, got, want)
	}
	np := len(want.Policies)
	for ri, raw := range records[1:] {
		var rec harnessRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("experiment: checkpoint %s: record %d: %w", path, ri+1, err)
		}
		idx := rec.UI*want.Sets + rec.SI
		if rec.UI < 0 || rec.SI < 0 || rec.SI >= want.Sets || idx >= len(outs) ||
			len(rec.Energy) != np || len(rec.Misses) != np {
			return nil, fmt.Errorf("experiment: checkpoint %s: record %d does not fit the sweep "+
				"(ui=%d si=%d, %d policies)", path, ri+1, rec.UI, rec.SI, np)
		}
		outs[idx] = harnessOut{energy: rec.Energy, misses: rec.Misses, bnd: rec.Bnd}
		done[idx] = true
	}
	return j, nil
}

// record journals completed job jobIdx. Safe for concurrent workers.
func (j *journal) record(jobIdx int, out *harnessOut) error {
	if j == nil {
		return nil
	}
	return j.append(harnessRecord{UI: jobIdx / j.sets, SI: jobIdx % j.sets, Energy: out.energy, Misses: out.misses, Bnd: out.bnd})
}

func (j *journal) append(v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Append(payload)
}

func (j *journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
