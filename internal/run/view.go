package run

import (
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/clockless/zigzag/internal/model"
)

// viewIDs hands out a unique identity per View instance; snapshots carry
// their source view's id so receivers can watermark how much of that
// source's append-only logs they have already merged.
var viewIDs atomic.Uint64

// View is the subjective information content of a node's local state under
// an FFIP: the structure of its causal past — which nodes exist, which
// deliveries wired them together, which external inputs arrived — and
// nothing else. Crucially, a View carries no real-time information: every
// analysis built on it (in particular the extended bounds graph and hence
// all knowledge computation) is a function of structure alone, which is the
// paper's clockless point made executable.
//
// Views come from two places: ViewOf extracts one from a recorded run
// (offline analysis), and the live engine of internal/live accumulates one
// receive batch by receive batch at each process (online decisions).
//
// A view only ever grows, and it records that growth in append-only logs:
// DeliveryCount/DeliveriesSince expose the delivery log as a cheap delta
// API (the incremental knowledge engine's bounds.Handle consumes it), and
// Snapshot freezes the logs into an immutable, shareable payload for
// outgoing FFIP messages without deep-copying the history.
type View struct {
	net    *model.Network
	origin BasicNode
	// id is this view's unique identity (see viewIDs).
	id uint64
	// members[p-1] is the boundary index of process p (-1 if absent).
	members []int
	// sent indexes the unique delivery per (sender node, destination
	// process) for DeliveryTo lookups and log deduplication.
	sent map[sentKey]BasicNode
	// externals[node] lists external-input labels absorbed at that node.
	externals map[BasicNode][]string
	// extEarliest indexes, per (process, label), the earliest non-initial
	// node that absorbed the label — the FindExternal answer. Protocol
	// agents call FindExternal at every state until the label appears, so
	// without the index every state pays a rescan of the whole timeline.
	// Lazily allocated: views without externals never pay for the map.
	extEarliest map[extKey]BasicNode

	// log is the append-only record of every distinct delivery, in
	// first-recorded order, with the dense channel id resolved and the
	// (structurally unknown) times zero.
	log []Delivery
	// extLog is the append-only record of every distinct (node, label)
	// external input, mirroring externals.
	extLog []External

	// fp is the rolling event-prefix hash over the two logs in recording
	// order (see Fingerprint), folded forward by recordDelivery and
	// recordExternal.
	fp uint64

	// merged[id] records how much of source view id's logs this view has
	// already merged. Successive snapshots of one view are prefix-extensions
	// of each other (logs only append), so a receiver that keeps receiving
	// from the same senders — the FFIP steady state — merges only each
	// payload's suffix instead of rescanning the whole history.
	merged map[uint64]logMarks
}

// logMarks is a per-source watermark into its delivery and external logs.
type logMarks struct{ log, ext int }

// extKey identifies an external-input lookup: which process absorbed which
// label.
type extKey struct {
	proc  model.ProcID
	label string
}

// ViewOf extracts the view of sigma from a recorded run.
func ViewOf(r *Run, sigma BasicNode) (*View, error) {
	ps, err := r.Past(sigma)
	if err != nil {
		return nil, err
	}
	v := &View{
		net:       r.net,
		origin:    sigma,
		id:        viewIDs.Add(1),
		members:   append([]int(nil), ps.members...),
		sent:      make(map[sentKey]BasicNode),
		externals: make(map[BasicNode][]string),
		fp:        fpMix(fpSeed(r.net), uint64(sigma.Proc)),
	}
	for _, d := range r.deliveries {
		if !ps.Contains(d.To) {
			continue
		}
		v.recordDelivery(d.From, d.To, d.Chan)
	}
	for _, e := range r.externals {
		if ps.Contains(e.To) {
			v.recordExternal(e.To, e.Label)
		}
	}
	return v, nil
}

// Advance moves a view taken from r (by ViewOf or earlier Advance calls) to
// its origin's successor and returns the new origin. It absorbs exactly
// past(r, next) \ past(r, origin): the same reverse BFS as Past, started
// from the view's current membership, records the inbox deliveries and
// externals of every newly covered node. A past is downward-closed and a
// successor's past contains its predecessor's, so the walked view holds the
// same nodes, deliveries and externals as ViewOf(r, next); only the log
// order (and hence Fingerprint) may differ. Walking a whole timeline costs
// O(|past(r, last)|) instead of one ViewOf per state. It returns ErrNoNode,
// leaving the view unchanged, when the successor does not appear in r.
func (v *View) Advance(r *Run) (BasicNode, error) {
	if r.net != v.net && r.net.Fingerprint() != v.net.Fingerprint() {
		return BasicNode{}, fmt.Errorf("run: advancing a view over a different network")
	}
	next := v.origin.Successor()
	if !r.Appears(next) {
		return BasicNode{}, ErrNoNode
	}
	v.origin = next
	queue := []BasicNode{next}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		already := v.members[cur.Proc-1]
		if cur.Index <= already {
			continue
		}
		v.members[cur.Proc-1] = cur.Index
		for k := already + 1; k <= cur.Index; k++ {
			node := BasicNode{Proc: cur.Proc, Index: k}
			sp := r.inbox[r.flat(node)]
			for _, d := range r.deliveries[sp.lo:sp.hi] {
				if d.From.Index > v.members[d.From.Proc-1] {
					queue = append(queue, d.From)
				}
				v.recordDelivery(d.From, d.To, d.Chan)
			}
			for _, i := range r.extIn[node] {
				v.recordExternal(node, r.externals[i].Label)
			}
		}
	}
	return next, nil
}

// NewLocalView returns the view of process p's initial state.
func NewLocalView(net *model.Network, p model.ProcID) *View {
	v := &View{
		net:       net,
		origin:    BasicNode{Proc: p, Index: 0},
		id:        viewIDs.Add(1),
		members:   make([]int, net.N()),
		sent:      make(map[sentKey]BasicNode),
		externals: make(map[BasicNode][]string),
		fp:        fpMix(fpSeed(net), uint64(p)),
	}
	for i := range v.members {
		v.members[i] = -1
	}
	v.members[p-1] = 0
	return v
}

func (v *View) recordDelivery(from, to BasicNode, ch model.ChanID) {
	key := sentKey{from: from, to: to.Proc}
	if _, ok := v.sent[key]; ok {
		return
	}
	v.sent[key] = to
	d := Delivery{From: from, To: to, Chan: ch}
	v.log = append(v.log, d)
	v.fp = fpDelivery(v.fp, d)
}

func (v *View) recordExternal(node BasicNode, label string) {
	for _, l := range v.externals[node] {
		if l == label {
			return
		}
	}
	v.externals[node] = append(v.externals[node], label)
	e := External{To: node, Label: label}
	v.extLog = append(v.extLog, e)
	v.fp = fpExternal(v.fp, e)
	// Merge order is not timeline order, so the index keeps the smallest
	// index per (process, label). Initial nodes absorb no externals by
	// construction; the guard keeps the index aligned with FindExternal's
	// k >= 1 scan even for hand-built views.
	if node.Index >= 1 {
		if v.extEarliest == nil {
			v.extEarliest = make(map[extKey]BasicNode)
		}
		key := extKey{proc: node.Proc, label: label}
		if old, ok := v.extEarliest[key]; !ok || node.Index < old.Index {
			v.extEarliest[key] = node
		}
	}
}

// Net returns the network the view lives in.
func (v *View) Net() *model.Network { return v.net }

// Origin returns the node whose local state the view represents.
func (v *View) Origin() BasicNode { return v.origin }

// Contains reports membership of a basic node in the view.
func (v *View) Contains(b BasicNode) bool {
	if b.Proc < 1 || int(b.Proc) > len(v.members) || b.Index < 0 {
		return false
	}
	return b.Index <= v.members[b.Proc-1]
}

// Boundary returns the last node of process p inside the view.
func (v *View) Boundary(p model.ProcID) (BasicNode, bool) {
	if p < 1 || int(p) > len(v.members) || v.members[p-1] < 0 {
		return BasicNode{}, false
	}
	return BasicNode{Proc: p, Index: v.members[p-1]}, true
}

// PastSet converts the view's membership to a PastSet (for callers that
// verify witnesses against recorded runs).
func (v *View) PastSet() *PastSet {
	return &PastSet{origin: v.origin, members: append([]int(nil), v.members...)}
}

// Size returns the number of nodes in the view.
func (v *View) Size() int {
	total := 0
	for _, k := range v.members {
		total += k + 1
	}
	return total
}

// DeliveryTo returns the node that received the message sent at from to
// process to, if that delivery is inside the view.
func (v *View) DeliveryTo(from BasicNode, to model.ProcID) (BasicNode, bool) {
	b, ok := v.sent[sentKey{from: from, to: to}]
	return b, ok
}

// DeliveryCount returns the number of distinct deliveries the view has
// recorded. It only ever grows, so it serves as the watermark for
// DeliveriesSince.
func (v *View) DeliveryCount() int { return len(v.log) }

// DeliveriesSince returns the deliveries recorded since the watermark (a
// prior DeliveryCount), in recording order, with dense channel ids resolved
// and zero times. The result is a sub-slice of the append-only log: callers
// must not mutate it, and it stays valid as the view keeps growing.
func (v *View) DeliveriesSince(mark int) []Delivery { return v.log[mark:] }

// Deliveries returns the view's deliveries as (from, to) node pairs in
// deterministic order, with the dense channel id resolved. Send and receive
// times are structural unknowns and left zero.
func (v *View) Deliveries() []Delivery {
	out := append([]Delivery(nil), v.log...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From.Proc != b.From.Proc {
			return a.From.Proc < b.From.Proc
		}
		if a.From.Index != b.From.Index {
			return a.From.Index < b.From.Index
		}
		return a.To.Proc < b.To.Proc
	})
	return out
}

// Leaving returns the (sender, destination) pairs of FFIP messages sent at
// view nodes and not received inside the view — the E” generators of the
// extended bounds graph. Send times are structural unknowns and left zero.
func (v *View) Leaving() []Pending {
	var out []Pending
	for i, k := range v.members {
		p := model.ProcID(i + 1)
		for idx := 1; idx <= k; idx++ {
			from := BasicNode{Proc: p, Index: idx}
			for _, a := range v.net.OutArcs(p) {
				if _, ok := v.DeliveryTo(from, a.To); !ok {
					out = append(out, Pending{From: from, To: a.To, Chan: a.ID})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From.Proc != b.From.Proc {
			return a.From.Proc < b.From.Proc
		}
		if a.From.Index != b.From.Index {
			return a.From.Index < b.From.Index
		}
		return a.To < b.To
	})
	return out
}

// ResolvePrefix resolves theta's chain while it stays inside the view,
// mirroring (*Run).ChainPrefix: it returns the resolved prefix nodes and
// hop count.
func (v *View) ResolvePrefix(theta GeneralNode) (prefix []BasicNode, hops int) {
	cur := theta.Base
	if !v.Contains(cur) {
		return nil, 0
	}
	prefix = append(prefix, cur)
	for _, next := range theta.Path[1:] {
		if cur.IsInitial() {
			return prefix, hops
		}
		d, ok := v.DeliveryTo(cur, next)
		if !ok {
			return prefix, hops
		}
		cur = d
		prefix = append(prefix, cur)
		hops++
	}
	return prefix, hops
}

// ExternalsAt returns the external labels absorbed at a view node.
func (v *View) ExternalsAt(b BasicNode) []string {
	out := append([]string(nil), v.externals[b]...)
	sort.Strings(out)
	return out
}

// FindExternal locates the earliest node of process p that absorbed an
// external input with the given label. The lookup is O(1) against an index
// maintained on record, not a rescan of p's timeline: online agents
// (live.Protocol2) call this at every new state until the label appears,
// which used to cost a walk over every past node and its label slice per
// state.
func (v *View) FindExternal(p model.ProcID, label string) (BasicNode, bool) {
	n, ok := v.extEarliest[extKey{proc: p, label: label}]
	return n, ok
}

// Snapshot is a view's content frozen at one instant: the payload of an
// outgoing FFIP message (the sender's history at send time). It shares the
// view's append-only log backing instead of deep-copying it — the view only
// ever appends past the snapshot's length, so a Snapshot is immutable and
// safe to read from other goroutines while the owning process keeps
// absorbing. Taking one costs a copy of the n boundary indices, nothing
// proportional to the history.
type Snapshot struct {
	net     *model.Network
	origin  BasicNode
	source  uint64 // id of the view the snapshot froze
	members []int
	log     []Delivery
	extLog  []External
}

// Snapshot freezes the view's current content.
func (v *View) Snapshot() *Snapshot {
	return &Snapshot{
		net:     v.net,
		origin:  v.origin,
		source:  v.id,
		members: append([]int(nil), v.members...),
		log:     v.log[:len(v.log):len(v.log)],
		extLog:  v.extLog[:len(v.extLog):len(v.extLog)],
	}
}

// Origin returns the node whose local state the snapshot captured.
func (s *Snapshot) Origin() BasicNode { return s.origin }

// Contains reports membership of a basic node in the snapshot.
func (s *Snapshot) Contains(b BasicNode) bool {
	if b.Proc < 1 || int(b.Proc) > len(s.members) || b.Index < 0 {
		return false
	}
	return b.Index <= s.members[b.Proc-1]
}

// Receipt describes one incoming FFIP message for Absorb: the sender's node
// and the sender's frozen view at that node (the full-information payload).
type Receipt struct {
	From    BasicNode
	Payload *Snapshot
}

// Absorb advances the view by one receive batch: the owning process moves
// to its next local state, merges every sender's payload snapshot, records
// the batch's deliveries and external inputs, and returns the new node. It
// implements the FFIP state transition on the receiving side.
func (v *View) Absorb(receipts []Receipt, externalLabels []string) (BasicNode, error) {
	p := v.origin.Proc
	next := BasicNode{Proc: p, Index: v.members[p-1] + 1}
	v.members[p-1] = next.Index
	v.origin = next
	for _, rc := range receipts {
		if rc.Payload != nil {
			if err := v.merge(rc.Payload); err != nil {
				return BasicNode{}, err
			}
		}
		if !v.Contains(rc.From) {
			return BasicNode{}, fmt.Errorf("run: receipt from %s not covered by its own payload", rc.From)
		}
		v.recordDelivery(rc.From, next, v.net.ChanIDOf(rc.From.Proc, p))
	}
	for _, l := range externalLabels {
		v.recordExternal(next, l)
	}
	return next, nil
}

// merge unions a payload snapshot into this view. Everything below the
// watermark recorded for the snapshot's source view was merged from an
// earlier (prefix) snapshot already, so only the suffix is scanned.
func (v *View) merge(s *Snapshot) error {
	if len(s.members) != len(v.members) {
		return fmt.Errorf("run: merging views over different networks")
	}
	for i, k := range s.members {
		if k > v.members[i] {
			v.members[i] = k
		}
	}
	if v.merged == nil {
		v.merged = make(map[uint64]logMarks)
	}
	mk := v.merged[s.source]
	for i := mk.log; i < len(s.log); i++ {
		v.recordDelivery(s.log[i].From, s.log[i].To, s.log[i].Chan)
	}
	for i := mk.ext; i < len(s.extLog); i++ {
		v.recordExternal(s.extLog[i].To, s.extLog[i].Label)
	}
	// Channels need not be FIFO: a snapshot older than one already merged
	// can arrive later, so the watermark only ever advances.
	if len(s.log) > mk.log {
		mk.log = len(s.log)
	}
	if len(s.extLog) > mk.ext {
		mk.ext = len(s.extLog)
	}
	v.merged[s.source] = mk
	return nil
}

// Clone returns a deep copy with its own logs and indexes, for callers that
// need an independently growable view (message payloads use the far cheaper
// Snapshot instead).
func (v *View) Clone() *View {
	c := &View{
		net:       v.net,
		origin:    v.origin,
		id:        viewIDs.Add(1),
		members:   append([]int(nil), v.members...),
		sent:      make(map[sentKey]BasicNode, len(v.sent)),
		externals: make(map[BasicNode][]string, len(v.externals)),
		log:       append([]Delivery(nil), v.log...),
		extLog:    append([]External(nil), v.extLog...),
		fp:        v.fp,
	}
	for key, node := range v.sent {
		c.sent[key] = node
	}
	for node, labels := range v.externals {
		c.externals[node] = append([]string(nil), labels...)
	}
	if len(v.extEarliest) > 0 {
		c.extEarliest = make(map[extKey]BasicNode, len(v.extEarliest))
		for key, node := range v.extEarliest {
			c.extEarliest[key] = node
		}
	}
	if len(v.merged) > 0 {
		c.merged = make(map[uint64]logMarks, len(v.merged))
		for id, mk := range v.merged {
			c.merged[id] = mk
		}
	}
	return c
}
