package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"time"

	"repro/internal/cluster"
)

// fingerprint hashes the simulated outputs of a run: the report scalars,
// each request's first-token time, tokens and rebuffer time in ID order,
// the migration, prefix-hit, reload, retry, shed, chaos and scale-event
// counters, and the bytes each fabric class moved. It leaves out event
// counts, transfer counts and wall times, so a change that fires fewer
// events or books fewer, larger transfers for the same simulated outcome
// keeps its fingerprint.
func fingerprint(res *cluster.Result) string {
	f := fp{h: sha256.New()}
	r := res.Report
	f.ints(int64(r.N), int64(r.Finished), int64(r.Makespan), r.TotalIn, r.TotalOut)
	f.floats(r.Throughput, r.EffectiveTokens, r.EffectiveThroughput)
	f.durations(r.MeanTTFT, r.P50TTFT, r.P99TTFT, r.MaxTTFT, r.TotalRebuffer, r.MeanRebuffer)
	f.floats(r.StallFraction, r.QoS)
	f.ints(int64(r.Preemptions))
	for _, q := range res.Requests {
		f.ints(int64(q.ID), int64(q.FirstTokenAt), int64(q.Generated), int64(q.RebufferTotal))
	}
	f.ints(res.Migrations, res.MigratedTokens, res.MigrationDrops, res.MigrationsDeclined,
		res.PrefixHits, res.PrefixHitTokens,
		res.HostReloads, res.HostReloadTokens, res.HostReloadFallbacks, res.HostReloadDrops,
		res.Retries, res.RetryFailures, res.GatewayBuffered, res.GatewayShed,
		res.Crashes, res.Backfills, res.Replications, res.ReplicatedBytes,
		res.Prewarms, res.PrewarmedTokens, res.DrainMigrations, res.DrainDroppedPins,
		res.WarmupStalls, int64(len(res.ScaleEvents)))
	for _, ev := range res.ScaleEvents {
		f.ints(int64(ev.At), int64(ev.Replica))
		f.h.Write([]byte(ev.Kind))
	}
	for _, c := range res.TransferClasses {
		f.ints(int64(c.Class), c.Bytes)
	}
	return hex.EncodeToString(f.h.Sum(nil))
}

type fp struct {
	h   hash.Hash
	buf [8]byte
}

func (f *fp) ints(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(f.buf[:], uint64(v))
		f.h.Write(f.buf[:])
	}
}

func (f *fp) floats(vs ...float64) {
	for _, v := range vs {
		f.ints(int64(math.Float64bits(v)))
	}
}

func (f *fp) durations(vs ...time.Duration) {
	for _, v := range vs {
		f.ints(int64(v))
	}
}
