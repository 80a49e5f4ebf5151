package main

import (
	"math"
	"time"

	"priview/internal/covering"
	"priview/internal/noise"
)

// Frozen settings. The open-loop rates were calibrated once, at the
// commit that added this benchmark, to 20–35% of each serve workload's
// closed-loop goodput_rps on a 2-vCPU host (README.md), and are never
// recomputed per run: a faster or slower server must face the same
// offered load for two commits to be comparable.
const (
	dataN         = 1_000_000 // synthetic Kosarak records
	dataD         = 32
	viewSize      = 8 // ℓ
	coverage      = 3 // t: C3(8,·), the design `priview plan` picks for this N and ε
	restarts      = 4 // covering.Best greedy restarts, as `priview build` uses
	wantViews     = 173
	cliSeed       = 1 // `priview build`'s default -seed; the build replay mirrors it
	reps          = 3 // serve reps per run, each against a fresh server
	extraSpawns   = 4 // spawn→ready→stop cycles per serve run beyond the reps, for setup_s
	clients       = 2 // keep-alive connections, and closed-loop clients
	oracleEvery   = 64
	batchSize     = 64
	maxTotalError = 0.01 // |total − N|/N bound on a built release
)

type kind int

const (
	kindBuild  kind = iota // sequential `priview build` processes
	kindSingle             // GET /v1/marginal
	kindBatch              // POST /v1/marginals
)

// workload is one traffic mix (or the build path).
type workload struct {
	name string
	kind kind
	// rate is the open-loop arrival rate per second (requests, or
	// batches for kindBatch).
	rate float64
	// openShare is the share of each rep's measured time given to the
	// open loop; the closed loop gets the rest in whole seconds.
	openShare float64
	// closedCap is well above any closed-loop goodput measured on the
	// reference host; it sizes the pre-generated request pool.
	closedCap float64
	newMix    func(rng *noise.Stream, design *covering.Design) mix
}

var workloads = []workload{
	// The only workload where dataset, covering, consistency, noise, audit
	// and the snapshot writer do any work.
	{name: "build", kind: kindBuild},
	// Every request hits: routing, admission, the cache lookup and JSON
	// encoding are the whole cost.
	{name: "serve-hot", kind: kindSingle, rate: 4000, openShare: 0.6, closedCap: 40000, newMix: newHotMix},
	// Every request misses and runs core.prepare plus the CME solve; a
	// hit-path change should not move it.
	{name: "serve-cold", kind: kindSingle, rate: 100, openShare: 0.6, closedCap: 3000, newMix: newColdMix},
	// The same cache and solver used differently: DoBatch hits, joins and
	// evictions, QueryBatch grouping, dedupe and fan-out. A longer open
	// phase keeps 10 samples beyond its p99 at this rate.
	{name: "serve-batch", kind: kindBatch, rate: 70, openShare: 0.75, closedCap: 1000, newMix: newBatchMix},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phases splits one rep's share of the run into the open- and
// closed-loop phase lengths; the closed loop gets whole seconds because
// goodput is a median over 1 s windows.
func (w workload) phases(seconds int) (open, closed time.Duration) {
	perRep := float64(seconds) / reps
	c := math.Max(1, math.Floor(perRep*(1-w.openShare)))
	return time.Duration((perRep - c) * float64(time.Second)), time.Duration(c) * time.Second
}

// mix generates a serve workload's requests, always before the phase
// that sends them.
type mix interface {
	// prime returns the unmeasured requests that fill the cache.
	prime() []request
	next() request
}

// hotMix: Zipf(s=1.1) GETs over 2,000 sets of 2–5 attributes, all of
// them primed, so every measured request is a cache hit.
type hotMix struct {
	rng  *noise.Stream
	sets [][]int
	z    *zipf
}

func newHotMix(rng *noise.Stream, design *covering.Design) mix {
	sets := universe(rng.Derive("universe"), design.D, 2000, 2, 5)
	return &hotMix{rng: rng.Derive("picks"), sets: sets, z: newZipf(len(sets), 1.1)}
}

func (m *hotMix) prime() []request {
	var out []request
	for i := 0; i < len(m.sets); i += batchSize {
		out = append(out, batchRequest(m.sets[i:min(i+batchSize, len(m.sets))]))
	}
	return out
}

func (m *hotMix) next() request { return singleRequest(m.sets[m.z.pick(m.rng)]) }

// coldMix: every request a fresh 6-, 7- or 8-way set (30/50/20%) that no
// view covers. Solve time grows about fourfold per extra attribute, so
// the median must fall inside one size class: with half the requests
// 6-way it sat on the gap between the 6- and 7-way times and moved by a
// third from run to run. Sizes are dealt from shuffled decks of ten
// holding exactly the mix, so a drawn mix cannot drift either.
type coldMix struct {
	rng  *noise.Stream
	u    *uncovered
	deck []int
}

func newColdMix(rng *noise.Stream, design *covering.Design) mix {
	return &coldMix{rng: rng.Derive("sizes"), u: newUncovered(rng.Derive("sets"), design)}
}

func (m *coldMix) prime() []request { return nil }

func (m *coldMix) next() request {
	if len(m.deck) == 0 {
		m.deck = []int{6, 6, 6, 7, 7, 7, 7, 7, 8, 8}
		m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	k := m.deck[0]
	m.deck = m.deck[1:]
	return singleRequest(m.u.next(k))
}

// batchMix: 64 queries per batch — 16 covered 2–3-way sets, 32 Zipf
// picks from 1,000 sets of 4–5 attributes, 8 fresh uncovered 6-way sets
// and 8 duplicates of queries earlier in the same batch — shuffled.
type batchMix struct {
	rng    *noise.Stream
	design *covering.Design
	sets   [][]int
	z      *zipf
	u      *uncovered
}

func newBatchMix(rng *noise.Stream, design *covering.Design) mix {
	sets := universe(rng.Derive("universe"), design.D, 1000, 4, 5)
	return &batchMix{
		rng: rng.Derive("picks"), design: design, sets: sets,
		z: newZipf(len(sets), 1.1), u: newUncovered(rng.Derive("fresh"), design),
	}
}

func (m *batchMix) prime() []request { return nil }

func (m *batchMix) next() request {
	q := make([][]int, 0, batchSize)
	for i := 0; i < 16; i++ {
		q = append(q, coveredSet(m.rng, m.design, 2+m.rng.Intn(2)))
	}
	for i := 0; i < 32; i++ {
		q = append(q, m.sets[m.z.pick(m.rng)])
	}
	for i := 0; i < 8; i++ {
		q = append(q, m.u.next(6))
	}
	for i := 0; i < 8; i++ {
		q = append(q, q[m.rng.Intn(len(q))])
	}
	m.rng.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
	return batchRequest(q)
}
