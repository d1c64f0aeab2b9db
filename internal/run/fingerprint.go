package run

import "github.com/clockless/zigzag/internal/model"

// Event fingerprints: rolling 64-bit FNV-1a hashes over append-only event
// logs, seeded with the network's content fingerprint. (*Run).Fingerprint
// hashes the tick-ordered delivery and external tables of a finished
// recording. Two byte-identical runs — in particular a live
// recording and sim.Simulate under the same configuration — share a
// fingerprint, which is what lets bounds.NetworkEngine.NewRunAt address
// frozen standing prefixes by run content across seeds and policies.
//
// Fingerprints are in-memory cache keys, not cryptographic digests: a 64-bit
// collision would alias two distinct prefixes. The consumers accept that
// risk the way every content-addressed in-process cache does.

const (
	fpOffset uint64 = 14695981039346656037
	fpPrime  uint64 = 1099511628211
)

// fpMix folds one 64-bit word into the hash, byte by byte.
func fpMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fpPrime
		x >>= 8
	}
	return h
}

// fpString folds a label into the hash, length-prefixed so concatenated
// labels cannot alias.
func fpString(h uint64, s string) uint64 {
	h = fpMix(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fpPrime
	}
	return h
}

// fpDelivery folds one delivery event into the hash. Times participate: a
// run fingerprint identifies the timed event log, not just its structure.
func fpDelivery(h uint64, d Delivery) uint64 {
	h = fpMix(h, uint64(d.From.Proc))
	h = fpMix(h, uint64(d.From.Index))
	h = fpMix(h, uint64(d.To.Proc))
	h = fpMix(h, uint64(d.To.Index))
	h = fpMix(h, uint64(d.SendTime))
	h = fpMix(h, uint64(d.RecvTime))
	return h
}

// fpExternal folds one external-input event into the hash.
func fpExternal(h uint64, e External) uint64 {
	h = fpMix(h, uint64(e.To.Proc))
	h = fpMix(h, uint64(e.To.Index))
	h = fpMix(h, uint64(e.Time))
	return fpString(h, e.Label)
}

// fpSeed starts a fingerprint from the network's content hash, so event
// streams over different topologies (or bound scalings of one topology)
// never alias even when their event tuples coincide.
func fpSeed(net *model.Network) uint64 {
	return fpMix(fpOffset, net.Fingerprint())
}

// fpFinish maps the accumulated hash away from the "no fingerprint"
// sentinel 0.
func fpFinish(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}

// Fingerprint returns the run's content hash: the network fingerprint, the
// horizon, every delivery and then every external input in tick order (the
// orders Deliveries and Externals return). It is computed on the first
// call, which must come after Recorder.Finish, and is safe for concurrent
// callers; byte-identical recordings — a live execution and sim.Simulate of
// the same configuration, or a Builder fed the same events in any order —
// agree on it. The hash reads the tick-ordered tables, which depend on the
// batches alone, not on how a producer ordered its events. It is never
// zero.
func (r *Run) Fingerprint() uint64 {
	r.fpOnce.Do(func() {
		h := fpMix(fpSeed(r.net), uint64(r.horizon))
		for _, d := range r.deliveries {
			h = fpDelivery(h, d)
		}
		for _, e := range r.externals {
			h = fpExternal(h, e)
		}
		r.fingerprint = fpFinish(h)
	})
	return r.fingerprint
}
