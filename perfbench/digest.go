package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"specsched/internal/stats"
	"specsched/results"
)

// storedDigests holds, per workload, the output digest of a default-scale
// run at defaultSeed. Other seeds print their digest without checking it.
//
//go:embed digests.json
var storedDigests []byte

// canonical is the record's masked form: the façade's results.Run read into
// the simulator's stats.Run (wall-clock Elapsed drops out) with
// MaskSchedulerCounters applied, so only architecturally meaningful
// counters remain.
func canonical(r results.Run) (string, error) {
	raw, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	var s stats.Run
	if err := json.Unmarshal(raw, &s); err != nil {
		return "", err
	}
	m := s.MaskSchedulerCounters()
	out, err := json.Marshal(&m)
	return string(out), err
}

// digest is FNV-64a over the canonical forms of runs, in order.
func digest(runs []results.Run) (string, error) {
	h := fnv.New64a()
	for _, r := range runs {
		c, err := canonical(r)
		if err != nil {
			return "", err
		}
		h.Write([]byte(c))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// sameRuns reports whether got and want hold the same records in the same
// order, compared in canonical form.
func sameRuns(got, want []results.Run) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		a, errA := canonical(got[i])
		b, errB := canonical(want[i])
		if errA != nil || errB != nil || a != b {
			return false
		}
	}
	return true
}

// phaseDigest returns the digest over the bench's reference records and the
// records serve's fresh jobs below o.scale.digestJobs returned.
func phaseDigest(o options, b bench, ph phase) (string, error) {
	runs := b.records()
	if b.digestsJobs() {
		if len(ph.jobs) < o.scale.digestJobs {
			return "", fmt.Errorf("only %d jobs ran; the digest covers the first %d", len(ph.jobs), o.scale.digestJobs)
		}
		for _, j := range ph.jobs[:o.scale.digestJobs] {
			runs = append(runs, j.digest...)
		}
	}
	return digest(runs)
}

// checkDigest compares the phase's digest with the stored one when the run
// is at the default seed and scale, and prints it either way.
func checkDigest(o options, b bench, ph phase) error {
	got, err := phaseDigest(o, b, ph)
	if err != nil {
		return err
	}
	if o.seed != defaultSeed || o.scale != defaultScale {
		fmt.Fprintf(o.log, "output digest %s (not checked: only seed %d at default scale is stored)\n", got, defaultSeed)
		return nil
	}
	return matchStored(storedDigests, o.workload, got, o)
}

// matchStored checks got against the digest stored for workload in file.
func matchStored(file []byte, workload, got string, o options) error {
	var want map[string]string
	if err := json.Unmarshal(file, &want); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	if want[workload] != got {
		return fmt.Errorf("output digest %s, stored %q", got, want[workload])
	}
	fmt.Fprintf(o.log, "output digest %s matches the stored one\n", got)
	return nil
}
