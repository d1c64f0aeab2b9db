// Package model defines the static substrate of the bounded communication
// model (bcm) of Dan, Manohar and Moses (PODC 2017): a directed communication
// network whose channels carry integer lower and upper bounds on message
// transmission time. Time is identified with the natural numbers; a single
// time step is the minimal relevant unit of time.
//
// The package is purely structural: it knows nothing about runs, protocols
// or schedulers. Those live in internal/run and internal/sim.
package model

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ProcID identifies a process. Processes are numbered 1..n as in the paper
// (Procs = {1, ..., n}); 0 is never a valid process.
type ProcID int

// Time is a point on the global (external) timeline. Processes in the bcm
// model have no access to it; it exists only for the environment, the
// analyst and the proofs.
type Time = int

// Infinity is a sentinel "no bound / unreachable" time value. It is chosen
// so that Infinity+Infinity does not overflow int64 arithmetic.
const Infinity = int(1) << 40

// Channel is a directed communication channel (i, j) in Chans.
type Channel struct {
	From ProcID
	To   ProcID
}

// String renders the channel as "i->j".
func (c Channel) String() string { return fmt.Sprintf("%d->%d", c.From, c.To) }

// Bounds is the pair (L, U) of transmission-time bounds for one channel,
// satisfying 1 <= L <= U < Infinity.
type Bounds struct {
	Lower int
	Upper int
}

// Valid reports whether the bounds satisfy the bcm requirement
// 1 <= L <= U < Infinity.
func (b Bounds) Valid() bool {
	return 1 <= b.Lower && b.Lower <= b.Upper && b.Upper < Infinity
}

// String renders the bounds as "[L,U]".
func (b Bounds) String() string { return fmt.Sprintf("[%d,%d]", b.Lower, b.Upper) }

// ChanID is the dense integer id of a channel. Once a network is built its
// channels are numbered 0..NumChannels()-1 in (From, To) lexicographic order;
// the ids are stable for the network's lifetime and index flat per-channel
// tables (BoundsOf, ChannelOf), so hot loops resolve channel metadata with an
// O(1) slice load instead of a map probe.
type ChanID int32

// NoChan is the "no such channel" sentinel id.
const NoChan ChanID = -1

// Arc is one directed channel in dense form: its id, endpoints and bounds.
// The per-process arc slices returned by OutArcs carry everything the
// simulator's flooding loop needs in one contiguous read.
type Arc struct {
	ID     ChanID
	From   ProcID
	To     ProcID
	Bounds Bounds
}

// Network is a time-bounded communication network Net = (Procs, Chans)
// together with the bound functions L, U : Chans -> N. It is immutable once
// built via a Builder (or the convenience constructors); all accessors are
// safe for concurrent use.
//
// Internally the network is a dense, channel-indexed structure: arcs holds
// every channel sorted by (From, To) — so a channel's ChanID doubles as its
// index — and outOff/inOff are CSR-style offset tables slicing the flat
// adjacency arrays per process. The historical map-flavoured API (HasChan,
// ChanBounds, Lower, Upper) is retained as thin wrappers over ChanIDOf.
type Network struct {
	n    int
	arcs []Arc // sorted by (From, To); arcs[id].ID == ChanID(id)

	// CSR out-adjacency: process p's arcs are arcs[outOff[p-1]:outOff[p]],
	// and outTo is the aligned destination column (sorted per process).
	outOff []int32
	outTo  []ProcID

	// CSR in-adjacency: process p's incoming arc ids are
	// inIDs[inOff[p-1]:inOff[p]], with inFrom the aligned source column
	// (sorted per process).
	inOff  []int32
	inIDs  []ChanID
	inFrom []ProcID

	channels []Channel // aligned with arcs, for Channels()
	maxUpper int
	minLower int

	// fingerprint is the content hash of the network (see Fingerprint).
	fingerprint uint64
}

// FNV-1a parameters of the content fingerprints. The same mixing constants
// are used by internal/run's event fingerprints, so the two hash families
// compose into the content-addressed prefix keys of bounds.NewRunAt.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvMix folds one 64-bit word into an FNV-1a hash, byte by byte.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// Errors returned by network construction and path queries.
var (
	ErrNoChannel   = errors.New("model: no such channel")
	ErrBadBounds   = errors.New("model: bounds must satisfy 1 <= L <= U")
	ErrBadProc     = errors.New("model: process ids must lie in 1..n")
	ErrSelfLoop    = errors.New("model: self-loop channels are not allowed")
	ErrDupChannel  = errors.New("model: duplicate channel")
	ErrEmptyPath   = errors.New("model: path must contain at least one process")
	ErrBrokenPath  = errors.New("model: path uses a non-existent channel")
	ErrNoProcesses = errors.New("model: network needs at least one process")
)

// maxProcs bounds the process count Build accepts: networks keep dense
// per-process tables, so an absurd count from an untrusted source (a trace
// file) is an ErrBadProc instead of an allocation failure.
const maxProcs = 1 << 20

// Builder accumulates processes and channels and produces an immutable
// Network. The zero value is not usable; call NewBuilder.
type Builder struct {
	n     int
	chans map[Channel]Bounds
	err   error
}

// NewBuilder returns a Builder for a network over processes 1..n.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, chans: make(map[Channel]Bounds)}
}

// Chan adds the directed channel from -> to with bounds [lower, upper].
// Errors are latched and reported by Build.
func (b *Builder) Chan(from, to ProcID, lower, upper int) *Builder {
	if b.err != nil {
		return b
	}
	switch {
	case from < 1 || int(from) > b.n || to < 1 || int(to) > b.n:
		b.err = fmt.Errorf("%w: channel %d->%d in network of size %d", ErrBadProc, from, to, b.n)
	case from == to:
		b.err = fmt.Errorf("%w: %d->%d", ErrSelfLoop, from, to)
	default:
		ch := Channel{From: from, To: to}
		if _, dup := b.chans[ch]; dup {
			b.err = fmt.Errorf("%w: %s", ErrDupChannel, ch)
			return b
		}
		bd := Bounds{Lower: lower, Upper: upper}
		if !bd.Valid() {
			b.err = fmt.Errorf("%w: channel %s has %s", ErrBadBounds, ch, bd)
			return b
		}
		b.chans[ch] = bd
	}
	return b
}

// BiChan adds both directions with the same bounds.
func (b *Builder) BiChan(p, q ProcID, lower, upper int) *Builder {
	return b.Chan(p, q, lower, upper).Chan(q, p, lower, upper)
}

// Build finalizes the network: channels are sorted by (From, To), assigned
// their dense ChanIDs and laid out into the flat arc and CSR offset tables.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.n < 1 {
		return nil, ErrNoProcesses
	}
	if b.n > maxProcs {
		return nil, fmt.Errorf("%w: %d processes, at most %d", ErrBadProc, b.n, maxProcs)
	}
	n := b.n
	m := len(b.chans)
	net := &Network{
		n:        n,
		arcs:     make([]Arc, 0, m),
		outOff:   make([]int32, n+1),
		outTo:    make([]ProcID, m),
		inOff:    make([]int32, n+1),
		inIDs:    make([]ChanID, m),
		inFrom:   make([]ProcID, m),
		channels: make([]Channel, 0, m),
		minLower: Infinity,
	}
	for ch, bd := range b.chans {
		net.arcs = append(net.arcs, Arc{From: ch.From, To: ch.To, Bounds: bd})
		if bd.Upper > net.maxUpper {
			net.maxUpper = bd.Upper
		}
		if bd.Lower < net.minLower {
			net.minLower = bd.Lower
		}
	}
	sort.Slice(net.arcs, func(i, j int) bool {
		if net.arcs[i].From != net.arcs[j].From {
			return net.arcs[i].From < net.arcs[j].From
		}
		return net.arcs[i].To < net.arcs[j].To
	})
	// Assign ids, fill the aligned columns and count degrees.
	inDeg := make([]int32, n+1)
	for i := range net.arcs {
		a := &net.arcs[i]
		a.ID = ChanID(i)
		net.outTo[i] = a.To
		net.channels = append(net.channels, Channel{From: a.From, To: a.To})
		net.outOff[a.From]++
		inDeg[a.To]++
	}
	for p := 1; p <= n; p++ {
		net.outOff[p] += net.outOff[p-1]
		net.inOff[p] = net.inOff[p-1] + inDeg[p]
	}
	// Fill in-adjacency. Arcs are From-major with ascending To, so for a
	// fixed destination the sources arrive in ascending order and each
	// per-process segment of inFrom ends up sorted.
	next := make([]int32, n)
	copy(next, net.inOff[:n])
	for i := range net.arcs {
		a := &net.arcs[i]
		slot := next[a.To-1]
		next[a.To-1]++
		net.inIDs[slot] = a.ID
		net.inFrom[slot] = a.From
	}
	// Content fingerprint over the canonical (sorted) arc list: two Build
	// calls over equal topologies produce equal fingerprints no matter how
	// the channels were declared.
	h := fnvMix(fnvOffset, uint64(n))
	for _, a := range net.arcs {
		h = fnvMix(h, uint64(a.From))
		h = fnvMix(h, uint64(a.To))
		h = fnvMix(h, uint64(a.Bounds.Lower))
		h = fnvMix(h, uint64(a.Bounds.Upper))
	}
	if h == 0 {
		h = 1 // 0 is the "no fingerprint" sentinel of the consumers
	}
	net.fingerprint = h
	return net, nil
}

// MustBuild is Build that panics on error; intended for tests and fixtures.
func (b *Builder) MustBuild() *Network {
	net, err := b.Build()
	if err != nil {
		panic(err)
	}
	return net
}

// N returns the number of processes.
func (net *Network) N() int { return net.n }

// Fingerprint returns the network's content hash: a 64-bit FNV-1a digest of
// the process count and every channel's (from, to, lower, upper) in canonical
// ChanID order. Structurally equal networks — however and whenever they were
// built — share a fingerprint, so caches keyed by it (the sweep engine map,
// the prefix hash's network component in bounds) deduplicate topologies that
// pointer identity would miss. It is never zero.
func (net *Network) Fingerprint() uint64 { return net.fingerprint }

// Procs returns the process ids 1..n in order.
func (net *Network) Procs() []ProcID {
	ps := make([]ProcID, net.n)
	for i := range ps {
		ps[i] = ProcID(i + 1)
	}
	return ps
}

// ValidProc reports whether p is a process of this network.
func (net *Network) ValidProc(p ProcID) bool { return p >= 1 && int(p) <= net.n }

// ChanIDOf returns the dense id of channel from -> to, or NoChan if the
// channel (or either process) does not exist. The lookup is a binary search
// over the process's sorted out-arc segment — no map, no allocation.
func (net *Network) ChanIDOf(from, to ProcID) ChanID {
	if !net.ValidProc(from) || !net.ValidProc(to) {
		return NoChan
	}
	lo, hi := net.outOff[from-1], net.outOff[from]
	seg := net.outTo[lo:hi]
	i := sort.Search(len(seg), func(k int) bool { return seg[k] >= to })
	if i < len(seg) && seg[i] == to {
		return ChanID(lo + int32(i))
	}
	return NoChan
}

// BoundsOf returns the bounds of a channel by id. The id must be valid
// (obtained from ChanIDOf, OutArcs or a Run's deliveries).
func (net *Network) BoundsOf(id ChanID) Bounds { return net.arcs[id].Bounds }

// ChannelOf returns the (from, to) pair of a channel by id.
func (net *Network) ChannelOf(id ChanID) Channel { return net.channels[id] }

// Arcs returns every channel in dense form, ordered by id (equivalently by
// (From, To)). The returned slice is shared; callers must not mutate it.
func (net *Network) Arcs() []Arc { return net.arcs }

// OutArcs returns process p's outgoing channels as a contiguous arc slice,
// sorted by destination. The returned slice is shared; callers must not
// mutate it.
func (net *Network) OutArcs(p ProcID) []Arc {
	if !net.ValidProc(p) {
		return nil
	}
	return net.arcs[net.outOff[p-1]:net.outOff[p]]
}

// OutBase returns the id of process p's first out-arc: p's out-arcs carry
// the consecutive ids OutBase(p), OutBase(p)+1, ..., so an out-arc's rank
// among them is its id minus OutBase(p). p must be a process of the
// network.
func (net *Network) OutBase(p ProcID) ChanID { return ChanID(net.outOff[p-1]) }

// InIDs returns the ids of process p's incoming channels, sorted by source.
// The returned slice is shared; callers must not mutate it.
func (net *Network) InIDs(p ProcID) []ChanID {
	if !net.ValidProc(p) {
		return nil
	}
	return net.inIDs[net.inOff[p-1]:net.inOff[p]]
}

// HasChan reports whether the directed channel from -> to exists.
func (net *Network) HasChan(from, to ProcID) bool {
	return net.ChanIDOf(from, to) != NoChan
}

// ChanBounds returns the bounds of channel from -> to.
func (net *Network) ChanBounds(from, to ProcID) (Bounds, error) {
	id := net.ChanIDOf(from, to)
	if id == NoChan {
		return Bounds{}, fmt.Errorf("%w: %d->%d", ErrNoChannel, from, to)
	}
	return net.arcs[id].Bounds, nil
}

// Lower returns L_{from,to}; it panics if the channel does not exist.
// Channel existence is a structural invariant the caller must hold — the
// in-tree callers all read bounds of deliveries a validated run or view
// already proved exist. Code handling unvalidated input (user-supplied
// plans, decoded traces, fuzzed paths) must use ChanBounds, which returns
// ErrNoChannel instead.
func (net *Network) Lower(from, to ProcID) int {
	bd, err := net.ChanBounds(from, to)
	if err != nil {
		panic(err)
	}
	return bd.Lower
}

// Upper returns U_{from,to}; it panics if the channel does not exist — the
// same invariant contract as Lower. ChanBounds is the error-returning API
// for unvalidated input.
func (net *Network) Upper(from, to ProcID) int {
	bd, err := net.ChanBounds(from, to)
	if err != nil {
		panic(err)
	}
	return bd.Upper
}

// Out returns the out-neighbours of p in ascending order. The returned slice
// is shared; callers must not mutate it.
func (net *Network) Out(p ProcID) []ProcID {
	if !net.ValidProc(p) {
		return nil
	}
	return net.outTo[net.outOff[p-1]:net.outOff[p]]
}

// In returns the in-neighbours of p in ascending order. The returned slice
// is shared; callers must not mutate it.
func (net *Network) In(p ProcID) []ProcID {
	if !net.ValidProc(p) {
		return nil
	}
	return net.inFrom[net.inOff[p-1]:net.inOff[p]]
}

// Channels returns all channels in deterministic (From, To) order, i.e. by
// ChanID. The returned slice is shared; callers must not mutate it.
func (net *Network) Channels() []Channel { return net.channels }

// NumChannels returns |Chans|.
func (net *Network) NumChannels() int { return len(net.arcs) }

// MaxUpper returns the largest upper bound over all channels (0 if none).
func (net *Network) MaxUpper() int { return net.maxUpper }

// MinLower returns the smallest lower bound over all channels
// (Infinity if the network has no channels).
func (net *Network) MinLower() int { return net.minLower }

// String renders a compact description such as
// "Net(n=3; 1->2[1,4] 1->3[2,2])".
func (net *Network) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Net(n=%d;", net.n)
	for _, a := range net.arcs {
		fmt.Fprintf(&sb, " %s%s", Channel{From: a.From, To: a.To}, a.Bounds)
	}
	sb.WriteString(")")
	return sb.String()
}
