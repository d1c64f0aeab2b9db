package bounds

import (
	"sync"

	"github.com/clockless/zigzag/internal/graph"
	"github.com/clockless/zigzag/internal/model"
)

// NetworkEngine is the network-lifetime tier of the knowledge engine
// hierarchy
//
//	NetworkEngine (per model.Network)
//	  └── PrefixEngine (frozen standing prefixes, keyed by run content)
//	        └── Shared   (per run, NewRun / NewRunAt)
//	              └── Handle (per agent, Shared.NewHandle)
//
// It owns everything that depends only on the network and is therefore
// shared by every run — every sweep cell, every seed, every policy — of the
// same topology:
//
//   - the auxiliary psi band and its fixed E”' channel edges, kept as an
//     immutable prototype graph that NewRun stamps out per run via
//     graph.Clone (O(1) allocations instead of rebuilding the band and
//     re-adding one edge per channel);
//   - the per-process adjacency capacity hints (outCap/inCap) that presize
//     node vertices, and the restriction coordinates of the aux prefix;
//   - the query-scratch pool, so scratch buffers leased by one run's
//     handles are reused by the next run's instead of dying with each
//     Shared.
//
// The prototype graph is never queried or mutated after construction; runs
// only ever append to their clones (and remove edges they added), which the
// Clone contract makes safe — concurrent runs of one engine never write to
// shared memory. All other engine state is immutable after construction
// except the pool, which the engine mutex serializes.
type NetworkEngine struct {
	net *model.Network
	n   int
	// proto holds the aux psi band (vertices 0..n-1) and the E”' edges
	// aux(to) -> aux(from) per channel; NewRun clones it.
	proto *graph.Graph
	// auxBand/auxIdx are the graph.Restriction coordinates of the aux
	// prefix, copied into each run's coordinate tables.
	auxBand, auxIdx []int32
	// boundaryTo maps each band to its psi anchor (aux ids equal band ids).
	boundaryTo []int32
	// auxRefresh lists the aux band's vertex ids (0..n-1), the immutable
	// refresh set reverse queries pass after an E'' retirement.
	auxRefresh []int
	// outCap/inCap are the per-process adjacency capacity hints of node
	// vertices (successor + delivery edge pairs; E'/E'' never enter the
	// standing tables).
	outCap, inCap []int
	// maxOutDeg is the network's largest out-degree: the most E'' entries
	// one node can carry, so the stride of a handle's reverse mirror.
	maxOutDeg int

	// prefixes caches frozen standing prefixes of completed runs, keyed by
	// run content fingerprint (NewRunAt / Shared.CommitPrefix).
	prefixes *PrefixEngine

	// mu guards the scratch pool and total, the engine's cumulative
	// counters (Note, Stats).
	mu    sync.Mutex
	pool  []*graph.Scratch
	total EngineStats
}

// NewNetworkEngine derives the run-independent knowledge structure of one
// network: the auxiliary psi band with its E”' adjacency and the presizing
// hints. Build it once per network and stamp out runs with NewRun.
func NewNetworkEngine(net *model.Network) *NetworkEngine {
	n := net.N()
	e := &NetworkEngine{
		net:        net,
		n:          n,
		auxBand:    make([]int32, n),
		auxIdx:     make([]int32, n),
		boundaryTo: make([]int32, n),
		auxRefresh: make([]int, n),
		outCap:     make([]int, n),
		inCap:      make([]int, n),
	}
	e.prefixes = newPrefixEngine(e)
	auxOut := make([]int32, n)
	auxIn := make([]int32, n)
	for i := 0; i < n; i++ {
		e.auxBand[i] = int32(i)
		e.auxIdx[i] = graph.AlwaysVisible
		e.boundaryTo[i] = int32(i)
		e.auxRefresh[i] = i
		p := model.ProcID(i + 1)
		outDeg := len(net.OutArcs(p))
		inDeg := len(net.InIDs(p))
		// Node vertices: successor in/out plus one delivery edge pair per
		// send (out-channel) and per receive (in-channel).
		e.outCap[i] = 1 + outDeg + inDeg
		e.inCap[i] = 1 + inDeg + outDeg
		e.maxOutDeg = max(e.maxOutDeg, outDeg)
		// Aux band: one E''' edge aux(to) -> aux(from) per channel.
		auxOut[i] = int32(inDeg)
		auxIn[i] = int32(outDeg)
	}
	e.proto = graph.NewWithDegrees(auxOut, auxIn)
	for _, a := range net.Arcs() {
		e.proto.AddEdge(int(a.To)-1, int(a.From)-1, -a.Bounds.Upper)
	}
	return e
}

// Net returns the network the engine serves.
func (e *NetworkEngine) Net() *model.Network { return e.net }

// Prefixes returns the engine's standing-prefix cache.
func (e *NetworkEngine) Prefixes() *PrefixEngine { return e.prefixes }

// Stats returns a snapshot of the engine's cumulative counters.
func (e *NetworkEngine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.total
}

// Note adds d to the engine's cumulative counters. Handles note each
// query's counters as it returns, live executions their receive batches,
// sweeps the executions their x-fanout saved.
func (e *NetworkEngine) Note(d EngineStats) {
	e.mu.Lock()
	e.total.Add(d)
	e.mu.Unlock()
}

// NewRun stamps out the run-lifetime tier: a Shared engine whose standing
// graph starts as a clone of the aux prototype, above which the run's node
// vertices and edges are appended as agents subscribe. Runs of one engine
// are independent (safe to drive concurrently); each answers byte-identically
// to fresh NewExtendedFromView builds on its agents' views.
func (e *NetworkEngine) NewRun() *Shared {
	s := &Shared{
		eng:      e,
		n:        e.n,
		g:        e.proto.Clone(),
		members:  make([]int, e.n),
		vertexOf: make([][]int32, e.n),
		band:     make([]int32, e.n, 4*e.n),
		idx:      make([]int32, e.n, 4*e.n),
	}
	copy(s.band, e.auxBand)
	copy(s.idx, e.auxIdx)
	for i := range s.members {
		s.members[i] = -1
	}
	e.Note(EngineStats{Runs: 1, CloneBytes: e.proto.CloneBytes()})
	return s
}

// NewRunAt stamps out the run-lifetime tier for a run whose content
// fingerprint (run.Run.Fingerprint) the caller already knows — a recorded
// run about to be re-executed, or a deterministic execution whose schedule
// was pre-simulated. If the engine holds a frozen standing prefix under fp,
// the returned Shared starts from that snapshot: every timeline, successor
// edge and delivery edge of the identical earlier run is already standing,
// so handle syncs reduce to frontier bookkeeping, and hit is true. Otherwise
// the Shared starts empty exactly as NewRun's would, primed so that
// CommitPrefix — called once the run has been fully absorbed — freezes it
// into the cache under fp for the runs that follow.
//
// NewRunAt(0) (the "no fingerprint" sentinel) degenerates to NewRun: nothing
// is looked up and nothing will be committed. Answers from a prefix-stamped
// Shared are byte-identical to a fresh build's: the cache key pins the exact
// event log, and any standing material an individual agent has not seen yet
// stays hidden beyond its handle's frontier.
func (e *NetworkEngine) NewRunAt(fp uint64) (s *Shared, hit bool) {
	if fp == 0 {
		return e.NewRun(), false
	}
	if fz, ok := e.prefixes.lookup(fp); ok {
		return e.stampPrefix(fz), true
	}
	s = e.NewRun()
	s.pendingKey = fp
	return s, false
}

// stampPrefix stamps a Shared out of a frozen standing prefix. The standing
// graph and the coordinate tables alias the snapshot (copy-on-grow per the
// graph.Clone contract); the frontier, which absorption mutates in place, is
// copied.
func (e *NetworkEngine) stampPrefix(fz *frozenPrefix) *Shared {
	s := &Shared{
		eng:        e,
		n:          e.n,
		g:          fz.g.Clone(),
		members:    append([]int(nil), fz.members...),
		vertexOf:   make([][]int32, e.n),
		band:       fz.band,
		idx:        fz.idx,
		fromPrefix: true,
	}
	copy(s.vertexOf, fz.vertexOf)
	e.Note(EngineStats{Runs: 1, CloneBytes: fz.g.CloneBytes()})
	return s
}

// leaseScratch pops a pooled scratch (or makes one).
func (e *NetworkEngine) leaseScratch() *graph.Scratch {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.total.ScratchLeased++
	if k := len(e.pool); k > 0 {
		sc := e.pool[k-1]
		e.pool = e.pool[:k-1]
		return sc
	}
	return new(graph.Scratch)
}

// releaseScratch returns a scratch to the pool for later handles — of this
// run or any other run of the network.
func (e *NetworkEngine) releaseScratch(sc *graph.Scratch) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.total.ScratchLeased--
	e.pool = append(e.pool, sc)
}
