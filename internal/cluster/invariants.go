package cluster

// Cross-subsystem conservation laws. Four PRs of subsystems — cluster,
// kvcache, autoscale, fabric — interact through shared ledgers on one
// virtual clock; CheckInvariants cross-checks their joint accounting after
// any run. It lives in the package proper (not a _test file) so both the
// invariant test suite and the root benchmark smoke pass can call it on
// arbitrary (including randomized) specs.

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/attribution"
	"repro/internal/prefixindex"
)

// CheckInvariants verifies the conservation laws that tie the subsystems
// together on a finished run of a workload with wLen requests:
//
//  1. Fabric ledger ↔ kvcache accounting: per transfer class, the bytes
//     the fabric booked equal the bytes the KV managers moved (sync,
//     evict+pin drains, load, reload, and migrate+prewarm+drain against
//     the staked migration bytes).
//  2. Residency: no replica's pinned prefix pages ever exceeded its pool.
//  3. GPU-seconds equal the exact integral of the in-service replica
//     count reconstructed from the scale-event log.
//  4. Every admitted request appears exactly once in the merged results;
//     admitted plus shed covers the workload.
//  5. When the run recorded lifecycle events (Config.Obs.Events), the
//     summed event counts reconcile with the aggregate counters: arrivals
//     cover the workload, completions match the finished population,
//     sheds/migrations/declines/pre-warms/drain hand-offs match their
//     Result counters. A flight recorder that disagreed with the ledgers
//     it observes would be worse than none.
//  6. Chaos conservation: on a finished run every admitted request either
//     finished generating or exhausted the chaos retry budget (crashes
//     lose work, never requests), and the fabric's replicate class booked
//     exactly the redundancy bytes the chaos runtime accounted. The
//     GPU-seconds integral (law 3) and the request/event ledgers (laws 4
//     and 5) are themselves chaos-aware: a crash ends a replica's
//     in-service interval at the fault, failed requests belong to no
//     replica, and retry events reconcile against the retry counters.
//  7. Exact latency accounting: the causal spans derived from the event
//     stream (internal/obs/attribution) partition each completed
//     request's measured lifetime — gateway + wire + queue + prefill
//     equals its TTFT to the nanosecond, adding decode + preempted
//     reaches its end-to-end latency, and no phase is negative. When the
//     streaming attribution layer also ran, its report covers exactly
//     the derived spans. An attribution that leaked or double-counted
//     time would mislead precisely where it claims to explain.
//  8. Token bookkeeping: every request's running totals are consistent —
//     0 <= Effective <= Generated (each token weighs at most 1),
//     FirstTokenAt <= LastTokenAt <= SimEnd, a finished request's last
//     token is its finish instant, and a request that generated nothing
//     has no effective tokens and no last token.
//
// It returns the first violated law as an error, nil when all hold.
func CheckInvariants(res *Result, wLen int) error {
	if err := checkTransferConservation(res); err != nil {
		return err
	}
	if err := checkResidency(res); err != nil {
		return err
	}
	if err := checkGPUSeconds(res); err != nil {
		return err
	}
	if err := checkRequestConservation(res, wLen); err != nil {
		return err
	}
	if err := checkTokenBookkeeping(res); err != nil {
		return err
	}
	if err := checkIndexConservation(res); err != nil {
		return err
	}
	if err := checkEventReconciliation(res, wLen); err != nil {
		return err
	}
	if err := checkChaosAccounting(res, wLen); err != nil {
		return err
	}
	return checkAttribution(res)
}

// checkTokenBookkeeping verifies each request's running token totals
// against one another and the run's end, naming the first offender.
func checkTokenBookkeeping(res *Result) error {
	for _, r := range res.Requests {
		if r.Generated == 0 {
			if r.Effective != 0 || r.LastTokenAt != 0 {
				return fmt.Errorf("invariant: request %d generated nothing but has %v effective tokens, last token at %v",
					r.ID, r.Effective, r.LastTokenAt)
			}
			continue
		}
		if !(r.Effective >= 0 && r.Effective <= float64(r.Generated)) {
			return fmt.Errorf("invariant: request %d has %v effective tokens for %d generated",
				r.ID, r.Effective, r.Generated)
		}
		if r.FirstTokenAt > r.LastTokenAt || time.Duration(r.LastTokenAt) > res.SimEnd {
			return fmt.Errorf("invariant: request %d first token at %v, last at %v, run ended at %v",
				r.ID, r.FirstTokenAt, r.LastTokenAt, res.SimEnd)
		}
		if r.GenerationDone() && r.LastTokenAt != r.FinishedAt {
			return fmt.Errorf("invariant: request %d finished at %v but its last token came at %v",
				r.ID, r.FinishedAt, r.LastTokenAt)
		}
	}
	return nil
}

// checkChaosAccounting verifies the chaos-aware conservation laws: on a
// finished run, every admitted request either generated all its tokens or
// is one of the RetryFailures that exhausted the retry budget — crashes
// lose work but never lose requests — and the fabric's replicate class
// booked exactly the redundancy bytes the chaos runtime accounted
// (proactive mirror copies plus post-crash re-pins).
func checkChaosAccounting(res *Result, wLen int) error {
	if !res.TimedOut {
		var finished, unfinished int64
		for _, r := range res.Requests {
			if r.GenerationDone() {
				finished++
			} else {
				unfinished++
			}
		}
		if unfinished != res.RetryFailures {
			return fmt.Errorf("invariant: %d unfinished requests in results, %d retry failures",
				unfinished, res.RetryFailures)
		}
		admitted := int64(wLen) - res.GatewayShed
		if finished+res.RetryFailures != admitted {
			return fmt.Errorf("invariant: %d finished + %d retry failures != %d admitted",
				finished, res.RetryFailures, admitted)
		}
	}
	var replicate int64
	for _, cs := range res.TransferClasses {
		if cs.Class == fabric.ClassReplicate {
			replicate = cs.Bytes
		}
	}
	if replicate != res.ReplicatedBytes {
		return fmt.Errorf("invariant: fabric replicate class booked %d bytes, chaos accounts %d",
			replicate, res.ReplicatedBytes)
	}
	return nil
}

// checkIndexConservation ties the prefix index's publication ledger to the
// fabric's index-class accounting: every publication — applied, dropped, or
// still pending — was booked on the wire at exactly PubBytes, and the three
// dispositions partition the published total.
func checkIndexConservation(res *Result) error {
	var transfers, bytes int64
	for _, cs := range res.TransferClasses {
		if cs.Class == fabric.ClassIndex {
			transfers, bytes = cs.Transfers, cs.Bytes
		}
	}
	if res.PrefixIndex == nil {
		if transfers != 0 || bytes != 0 {
			return fmt.Errorf("invariant: fabric index class booked %d transfers / %d bytes with no prefix index",
				transfers, bytes)
		}
		return nil
	}
	st := res.PrefixIndex
	if transfers != st.Published || bytes != st.Published*prefixindex.PubBytes {
		return fmt.Errorf("invariant: fabric index class booked %d transfers / %d bytes, index published %d (%d bytes)",
			transfers, bytes, st.Published, st.Published*prefixindex.PubBytes)
	}
	if st.Applied+st.Dropped+st.Pending != st.Published {
		return fmt.Errorf("invariant: index publications leak: %d applied + %d dropped + %d pending != %d published",
			st.Applied, st.Dropped, st.Pending, st.Published)
	}
	return nil
}

// checkAttribution verifies the exact-accounting law over the spans the
// attribution pass derives from the recorded event stream. A no-op when
// the run kept no event recorder.
func checkAttribution(res *Result) error {
	if res.Obs == nil || res.Obs.Events == nil {
		return nil
	}
	spans := attribution.Derive(res.Obs.Events.Events())
	byID := make(map[int32]int, len(res.Requests))
	for i, r := range res.Requests {
		byID[int32(r.ID)] = i
	}
	for i := range spans {
		s := &spans[i]
		ri, ok := byID[s.Request]
		if !ok {
			return fmt.Errorf("invariant: span derived for request %d absent from results", s.Request)
		}
		r := res.Requests[ri]
		if s.Arrival != r.Arrival || s.FirstAt != r.FirstTokenAt || s.CompleteAt != r.FinishedAt {
			return fmt.Errorf("invariant: span timestamps for request %d (arrival %d first %d complete %d) disagree with result (%d %d %d)",
				s.Request, s.Arrival, s.FirstAt, s.CompleteAt, r.Arrival, r.FirstTokenAt, r.FinishedAt)
		}
		for p := attribution.Phase(0); p < attribution.NumPhases; p++ {
			if s.Phases[p] < 0 {
				return fmt.Errorf("invariant: request %d derived a negative %s phase (%v)",
					s.Request, p, s.Phases[p])
			}
		}
		if got, want := s.PhaseSumTTFT(), r.TTFT(); got != want {
			return fmt.Errorf("invariant: request %d pre-first-token phases sum to %v, measured TTFT %v",
				s.Request, got, want)
		}
		if got, want := s.PhaseSum(), r.FinishedAt.Sub(r.Arrival); got != want {
			return fmt.Errorf("invariant: request %d phases sum to %v, measured E2E %v",
				s.Request, got, want)
		}
	}
	// Every finished request must derive exactly one span — including
	// crash-retried requests, whose doomed attempts reset the derivation
	// state so only the surviving attempt finalizes. Retry failures never
	// complete and derive none; a timed-out run legitimately leaves
	// requests mid-flight.
	if !res.TimedOut {
		if want := len(res.Requests) - int(res.RetryFailures); len(spans) != want {
			return fmt.Errorf("invariant: %d spans derived for %d completed requests",
				len(spans), want)
		}
	}
	if res.Attribution != nil && !res.TimedOut {
		if got, want := res.Attribution.Requests, int64(len(spans)); got != want {
			return fmt.Errorf("invariant: attribution report covers %d requests, %d spans derived",
				got, want)
		}
	}
	return nil
}

// checkEventReconciliation sums the recorded lifecycle events and compares
// them against the Result's aggregate counters. A no-op when the run kept
// no event recorder.
func checkEventReconciliation(res *Result, wLen int) error {
	if res.Obs == nil || res.Obs.Events == nil {
		return nil
	}
	rec := res.Obs.Events
	type eventCheck struct {
		name string
		kind obs.Kind
		want int64
	}
	checks := []eventCheck{
		{"arrival", obs.KindArrival, int64(wLen)},
		{"gateway-shed", obs.KindGatewayShed, res.GatewayShed},
		{"gateway-buffer", obs.KindGatewayBuffer, res.GatewayBuffered},
		{"migrate-accept", obs.KindMigrateAccept, res.Migrations},
		{"migrate-decline", obs.KindMigrateDecline, res.MigrationsDeclined},
		{"prewarm", obs.KindPrewarm, res.Prewarms},
		{"drain", obs.KindDrain, res.DrainMigrations},
		{"crash", obs.KindCrash, res.Crashes},
		{"replicate", obs.KindReplicate, res.Replications},
		{"retry", obs.KindRetry, res.Retries + res.RetryFailures},
	}
	if st := res.PrefixIndex; st != nil {
		checks = append(checks,
			eventCheck{"index-publish", obs.KindIndexPublish, st.Published},
			eventCheck{"index-fallback", obs.KindIndexFallback, st.AffinityMisses +
				st.StaleFallbacks + st.HeadroomFallbacks + st.OverloadFallbacks})
	}
	for _, ck := range checks {
		if got := int64(rec.CountKind(ck.kind)); got != ck.want {
			return fmt.Errorf("invariant: %d %s events recorded, aggregates say %d",
				got, ck.name, ck.want)
		}
	}
	// Every admitted request must have been routed (directly or out of the
	// gateway) and, on a run that finished, completed exactly once. A timed-
	// out run legitimately leaves requests mid-flight.
	admitted := int64(wLen) - res.GatewayShed
	routed := int64(rec.CountKind(obs.KindRouteDecision)) + res.GatewayBuffered
	if routed != admitted {
		return fmt.Errorf("invariant: %d route events + %d gateway-buffered != %d admitted",
			routed-res.GatewayBuffered, res.GatewayBuffered, admitted)
	}
	if !res.TimedOut {
		if got, want := int64(rec.CountKind(obs.KindComplete)), admitted-res.RetryFailures; got != want {
			return fmt.Errorf("invariant: %d complete events recorded, %d requests admitted and not failed",
				got, want)
		}
	}
	return nil
}

// checkTransferConservation ties the fabric's per-class byte ledger to the
// KV managers' own byte counters.
func checkTransferConservation(res *Result) error {
	classes := map[fabric.Class]int64{}
	for _, cs := range res.TransferClasses {
		classes[cs.Class] = cs.Bytes
	}
	var synced, evicted, drained, loaded, reloaded, migratedOut int64
	for _, rs := range res.PerReplica {
		kv := rs.Result.KV
		synced += kv.BytesSynced
		evicted += kv.BytesEvicted
		drained += kv.PrefixBytesDrained
		loaded += kv.BytesLoaded
		reloaded += kv.BytesReloaded
		migratedOut += kv.MigratedOutBytes
	}
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"sync", classes[fabric.ClassSync], synced},
		{"evict", classes[fabric.ClassEvict], evicted + drained},
		{"load", classes[fabric.ClassLoad], loaded},
		{"reload", classes[fabric.ClassReload], reloaded},
		{"migrate+prewarm+drain",
			classes[fabric.ClassMigrate] + classes[fabric.ClassPrewarm] + classes[fabric.ClassDrain],
			migratedOut},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			return fmt.Errorf("invariant: fabric %s class booked %d bytes, kvcache accounts %d",
				ck.name, ck.got, ck.want)
		}
	}
	return nil
}

// checkResidency verifies pinned prefixes never outgrew any pool.
func checkResidency(res *Result) error {
	for _, rs := range res.PerReplica {
		kv := rs.Result.KV
		if kv.PeakPinnedPages > kv.PoolPages {
			return fmt.Errorf("invariant: replica %d peak pinned pages %d exceed pool %d",
				rs.ID, kv.PeakPinnedPages, kv.PoolPages)
		}
		if kv.PinnedPages < 0 || kv.PinnedPages > kv.PeakPinnedPages {
			return fmt.Errorf("invariant: replica %d pinned pages %d outside [0, peak %d]",
				rs.ID, kv.PinnedPages, kv.PeakPinnedPages)
		}
	}
	return nil
}

// checkGPUSeconds integrates the in-service replica count from the
// scale-event log (off→warming is +1, draining→off is −1; activate,
// reactivate, and drain do not change in-service membership) across
// [0, SimEnd] and compares the integral against the reported GPU-seconds.
// The integral is computed in exact virtual-time arithmetic; the float
// comparison allows only conversion-level error.
func checkGPUSeconds(res *Result) error {
	inService := res.InitialInService
	var last time.Duration
	var integral time.Duration
	for _, ev := range res.ScaleEvents {
		at := time.Duration(ev.At)
		if at < last {
			return fmt.Errorf("invariant: scale event log out of order at %v after %v", at, last)
		}
		integral += time.Duration(inService) * (at - last)
		last = at
		switch ev.Kind {
		case ScaleWarmup:
			inService++
		case ScaleOff:
			inService--
		case ScaleCrash:
			// A crash drops the replica out of service instantly; its
			// GPU-seconds stop accruing at the fault, not at a drain.
			inService--
		}
		if inService < 0 {
			return fmt.Errorf("invariant: in-service replica count went negative at %v", at)
		}
	}
	if res.SimEnd < last {
		return fmt.Errorf("invariant: run ended at %v before last scale event %v", res.SimEnd, last)
	}
	integral += time.Duration(inService) * (res.SimEnd - last)
	want := integral.Seconds()
	if diff := res.GPUSeconds - want; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("invariant: GPU-seconds %.9f != replica-count integral %.9f",
			res.GPUSeconds, want)
	}
	return nil
}

// checkRequestConservation verifies every admitted request appears exactly
// once in the merged results and that admitted plus shed covers the
// workload.
func checkRequestConservation(res *Result, wLen int) error {
	admitted := int64(wLen) - res.GatewayShed
	if got := int64(len(res.Requests)); got != admitted {
		return fmt.Errorf("invariant: %d requests in results, %d admitted (%d workload - %d shed)",
			got, admitted, wLen, res.GatewayShed)
	}
	seen := make(map[int]bool, len(res.Requests))
	for _, r := range res.Requests {
		if seen[r.ID] {
			return fmt.Errorf("invariant: request %d appears more than once in results", r.ID)
		}
		seen[r.ID] = true
	}
	var perReplica int
	for _, rs := range res.PerReplica {
		perReplica += rs.Result.Report.N
	}
	// Requests that exhausted the chaos retry budget belong to no replica:
	// the crashed engine disowned them and no survivor ever served them.
	if perReplica+int(res.RetryFailures) != len(res.Requests) {
		return fmt.Errorf("invariant: per-replica request sum %d + %d retry failures != merged %d",
			perReplica, res.RetryFailures, len(res.Requests))
	}
	if res.Report.N != len(res.Requests) {
		return fmt.Errorf("invariant: cluster report covers %d requests, merged %d",
			res.Report.N, len(res.Requests))
	}
	return nil
}
