package main

import (
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the machine and toolchain a record was made
// on.  Records are only comparable when their fingerprints match.
type fingerprint struct {
	CPUModel string `json:"cpu_model"`
	NProc    int    `json:"nproc"`
	// GOMAXPROCS of each process: the load generator pins itself to 1;
	// replicas run with it unset, which Go resolves to nproc; the traced
	// run's in-process replay runs at nproc like a replica.
	LoadgenGOMAXPROCS int    `json:"loadgen_gomaxprocs"`
	ReplicaGOMAXPROCS int    `json:"replica_gomaxprocs"`
	ReplayGOMAXPROCS  int    `json:"replay_gomaxprocs"`
	GoVersion         string `json:"go_version"`
	Kernel            string `json:"kernel"`
	// Commit is the VCS revision stamped into the kronbip binary
	// ("unknown" when built outside a git checkout); Binary is a hash of
	// the binary itself, which identifies the build either way.  Neither
	// is part of the machine match.
	Commit string `json:"commit"`
	Binary string `json:"binary_sha256"`
}

// record is everything one run measured, written next to its trace.
type record struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Traced      bool        `json:"traced"`
	Fingerprint fingerprint `json:"fingerprint"`
	Ops         int         `json:"ops"` // measured ops of the untraced phase
	TailPct     float64     `json:"op_tail_pct"`
	TailBeyond  int         `json:"op_tail_beyond"`
	// OpQuartilesMs are the quartiles of the measured op latencies.
	OpQuartilesMs []float64         `json:"op_quartiles_ms"`
	SetupSamples  []float64         `json:"setup_samples_s"`
	SelfCheck     string            `json:"self_check"`
	Correct       bool              `json:"correct"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	ErrorRate     float64           `json:"error_rate"`
	Metrics       map[string]metric `json:"metrics"`
}

func machine(bin string) fingerprint {
	fp := fingerprint{
		CPUModel:          "unknown",
		NProc:             runtime.NumCPU(),
		LoadgenGOMAXPROCS: runtime.GOMAXPROCS(0),
		ReplicaGOMAXPROCS: runtime.NumCPU(),
		ReplayGOMAXPROCS:  runtime.NumCPU(),
		GoVersion:         runtime.Version(),
		Kernel:            "unknown",
		Commit:            "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if info, err := buildinfo.ReadFile(bin); err == nil {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	if f, err := os.Open(bin); err == nil {
		h := sha256.New()
		if _, err := io.Copy(h, f); err == nil {
			fp.Binary = hex.EncodeToString(h.Sum(nil))[:16]
		}
		f.Close()
	}
	return fp
}

// machineDiffs names the machine fields on which two fingerprints
// differ.
func machineDiffs(a, b fingerprint) []string {
	var d []string
	add := func(name string, x, y any) {
		if x != y {
			d = append(d, fmt.Sprintf("%s (%v vs %v)", name, x, y))
		}
	}
	add("cpu_model", a.CPUModel, b.CPUModel)
	add("nproc", a.NProc, b.NProc)
	add("loadgen_gomaxprocs", a.LoadgenGOMAXPROCS, b.LoadgenGOMAXPROCS)
	add("replica_gomaxprocs", a.ReplicaGOMAXPROCS, b.ReplicaGOMAXPROCS)
	add("replay_gomaxprocs", a.ReplayGOMAXPROCS, b.ReplayGOMAXPROCS)
	add("go_version", a.GoVersion, b.GoVersion)
	add("kernel", a.Kernel, b.Kernel)
	return d
}

// compareRecords lists each shared metric's change from a to b.  When
// the records come from different machines (or workloads, or run
// lengths) the comparison is flagged advisory: its ratios say nothing
// about the code.
func compareRecords(a, b record) []string {
	var lines []string
	diffs := machineDiffs(a.Fingerprint, b.Fingerprint)
	if a.Workload != b.Workload {
		diffs = append(diffs, fmt.Sprintf("workload (%s vs %s)", a.Workload, b.Workload))
	}
	if a.Seconds != b.Seconds {
		diffs = append(diffs, fmt.Sprintf("seconds (%g vs %g)", a.Seconds, b.Seconds))
	}
	if len(diffs) > 0 {
		lines = append(lines, "ADVISORY: records differ in "+strings.Join(diffs, ", ")+"; ratios below are not evidence")
	}
	names := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		if _, ok := b.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		x, y := a.Metrics[k], b.Metrics[k]
		lines = append(lines, fmt.Sprintf("%-32s %14.6g -> %14.6g %-8s x%.3f", k, x.Value, y.Value, x.Unit, ratio(y.Value, x.Value)))
	}
	return lines
}

// spreadRecords summarises repeated runs: per metric, the median and
// the distance between the first and third quartiles as a share of the
// median — the run-to-run spread a metric's bound must exceed.  Records
// from different machines or workloads are flagged advisory.
func spreadRecords(recs []record) []string {
	var lines []string
	var diffs []string
	for _, r := range recs[1:] {
		diffs = append(diffs, machineDiffs(recs[0].Fingerprint, r.Fingerprint)...)
		if r.Workload != recs[0].Workload {
			diffs = append(diffs, fmt.Sprintf("workload (%s vs %s)", recs[0].Workload, r.Workload))
		}
	}
	if len(diffs) > 0 {
		lines = append(lines, "ADVISORY: records differ in "+strings.Join(diffs, ", "))
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range recs {
		for k, m := range r.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		q1, q2, q3, ok := quartiles(vals[k])
		if !ok {
			continue
		}
		lines = append(lines, fmt.Sprintf("%-32s n=%-3d median %14.6g %-8s spread %.4f",
			k, len(vals[k]), q2, units[k], ratio(q3-q1, q2)))
	}
	return lines
}

func readRecords(paths []string) ([]record, error) {
	recs := make([]record, len(paths))
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return recs, nil
}

func compareFiles(pa, pb string) ([]string, error) {
	recs, err := readRecords([]string{pa, pb})
	if err != nil {
		return nil, err
	}
	return compareRecords(recs[0], recs[1]), nil
}

func spreadFiles(paths []string) ([]string, error) {
	if len(paths) < 2 {
		return nil, fmt.Errorf("-spread takes at least two record files")
	}
	recs, err := readRecords(paths)
	if err != nil {
		return nil, err
	}
	return spreadRecords(recs), nil
}
