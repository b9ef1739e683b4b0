package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sybiltd/internal/grouping"
	"sybiltd/internal/mcs"
	"sybiltd/internal/simulate"
	"sybiltd/internal/truth"
)

var updateLoopGolden = flag.Bool("update", false, "rewrite testdata/loop_golden.txt")

const loopGoldenFile = "testdata/loop_golden.txt"

// TestLoopResultsBitIdentical pins every user of the weight/truth loop —
// CRH, CATD, GTM and the framework's group stage — to committed SHA-256
// digests of their exact output bits, so a refactor of the loop cannot
// move a single estimate, weight, round count or flag unnoticed. An
// intentional change regenerates the digests with
//
//	go test ./internal/core/ -run LoopResultsBitIdentical -update
//
// The digests are amd64's: gc fuses x*y+z into one FMA instruction on
// arm64 (and others), which rounds once instead of twice.
func TestLoopResultsBitIdentical(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; gc fuses x*y+z into FMA on %s, which moves the last bits", runtime.GOARCH)
	}
	var got []string
	for _, d := range goldenDatasets(t) {
		for _, a := range goldenAlgorithms(d.ds) {
			res, err := a.alg.Run(d.ds)
			if err != nil {
				t.Fatalf("%s/%s: %v", d.name, a.name, err)
			}
			got = append(got, fmt.Sprintf("%s %s %s", d.name, a.name, resultDigest(res)))
		}
	}
	if *updateLoopGolden {
		if err := os.MkdirAll(filepath.Dir(loopGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(loopGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(loopGoldenFile)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}

// resultDigest is SHA-256 over the IEEE-754 bits of the truths and
// weights, then the round count and the Converged and Degraded flags.
func resultDigest(res truth.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for _, v := range res.Truths {
		put(math.Float64bits(v))
	}
	for _, w := range res.Weights {
		put(math.Float64bits(w))
	}
	put(uint64(int64(res.Iterations)))
	put(bit(res.Converged))
	put(bit(res.Degraded))
	return hex.EncodeToString(h.Sum(nil))
}

type namedDataset struct {
	name string
	ds   *mcs.Dataset
}

type namedAlgorithm struct {
	name string
	alg  truth.Algorithm
}

// goldenDatasets is the paper's Table I campaign with and without the
// attack, three default simulated campaigns, the 500-account campaign of
// BenchmarkAGTRGrouping500, and 40 small random campaigns.
func goldenDatasets(t *testing.T) []namedDataset {
	t.Helper()
	sets := []namedDataset{
		{"paper-honest", truth.PaperExampleHonest()},
		{"paper-sybil", truth.PaperExampleWithSybil()},
	}
	for _, c := range []struct {
		name string
		cfg  simulate.Config
	}{
		{"sim-seed1", simulate.Config{Seed: 1}},
		{"sim-seed2", simulate.Config{Seed: 2}},
		{"sim-seed3", simulate.Config{Seed: 3}},
		{"campaign500", simulate.Config{Seed: 11, NumLegit: 490, SybilActiveness: 0.8}},
	} {
		sc, err := simulate.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, namedDataset{c.name, sc.Dataset})
	}
	for seed := int64(1); seed <= 40; seed++ {
		sets = append(sets, namedDataset{fmt.Sprintf("random-%02d", seed), goldenRandomDataset(seed)})
	}
	return sets
}

func goldenAlgorithms(ds *mcs.Dataset) []namedAlgorithm {
	ts := grouping.AGTS{}
	return []namedAlgorithm{
		{"crh", truth.CRH{}},
		{"crh-max1", truth.CRH{Config: truth.CRHConfig{MaxIterations: 1}}},
		{"catd", truth.CATD{}},
		{"catd-max3", truth.CATD{MaxIterations: 3}},
		{"gtm", truth.GTM{}},
		{"gtm-max2", truth.GTM{MaxIterations: 2}},
		{"td-tr0.3", Framework{Grouper: grouping.AGTR{Phi: 0.3}}},
		{"td-singleton", Framework{Grouper: singletonGrouper{n: ds.NumAccounts()}}},
		{"td-ts-mean", Framework{Grouper: ts}},
		{"td-ts-median", Framework{Grouper: ts, Config: Config{Aggregator: AggregateMedian}}},
		{"td-ts-invdev", Framework{Grouper: ts, Config: Config{Aggregator: AggregateInverseDeviation}}},
		{"td-ts-majority", Framework{Grouper: ts, Config: Config{Aggregator: AggregateMajority}}},
	}
}

// goldenRandomDataset builds a small campaign that exercises every edge
// of the loop: idle accounts, a task nobody reports, a task everyone
// reports with the same value (the std floor), a task only one account
// reports, and, on some seeds, a single active account (every weight is
// zero, so the truth step falls back to the plain mean). A cluster of
// clones reports one fabricated value at near-identical times, so the
// groupers have something to merge.
func goldenRandomDataset(seed int64) *mcs.Dataset {
	rng := rand.New(rand.NewSource(seed))
	m := 4 + rng.Intn(5)
	n := 1 + rng.Intn(9)
	if seed%7 == 0 {
		n = 1
	}
	silent, flat, solo := 0, 1, 2
	ds := mcs.NewDataset(m)
	base := time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC)
	truths := make([]float64, m)
	for j := range truths {
		truths[j] = -90 + rng.Float64()*40
	}
	add := func(id string, obs []mcs.Observation) {
		ds.AddAccount(mcs.Account{ID: id, Observations: obs})
	}
	for i := 0; i < n; i++ {
		noise := 0.5 + rng.Float64()*4
		var obs []mcs.Observation
		for j := 0; j < m; j++ {
			at := base.Add(time.Duration(rng.Intn(7200)) * time.Second)
			switch {
			case j == silent:
				continue
			case j == flat:
				obs = append(obs, mcs.Observation{Task: j, Value: -60, Time: at})
			case j == solo:
				if i == 0 {
					obs = append(obs, mcs.Observation{Task: j, Value: truths[j] + rng.NormFloat64()*noise, Time: at})
				}
			case rng.Float64() < 0.7:
				obs = append(obs, mcs.Observation{Task: j, Value: truths[j] + rng.NormFloat64()*noise, Time: at})
			}
		}
		// Shuffle so claims do not arrive in task order.
		rng.Shuffle(len(obs), func(a, b int) { obs[a], obs[b] = obs[b], obs[a] })
		add(fmt.Sprintf("u%d", i), obs)
		if rng.Float64() < 0.3 {
			add(fmt.Sprintf("idle%d", i), nil)
		}
	}
	if n > 1 {
		clones := rng.Intn(4)
		start := base.Add(time.Duration(rng.Intn(3600)) * time.Second)
		fake := -50 + rng.Float64()*10
		for c := 0; c < clones; c++ {
			var obs []mcs.Observation
			for j := flat + 2; j < m; j++ {
				obs = append(obs, mcs.Observation{Task: j, Value: fake, Time: start.Add(time.Duration(c*45+j*60) * time.Second)})
			}
			add(fmt.Sprintf("s%d", c), obs)
		}
	}
	return ds
}
