package cluster_test

import (
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// coldArrivals is n single-shot requests arriving one second apart from
// t=0, while the scale-to-zero pool is still cold (warm-up is 3s, so use
// n <= 3 to keep every arrival ahead of activation).
func coldArrivals(n int) trace.Workload {
	w := trace.Workload{Name: "cold"}
	for i := 0; i < n; i++ {
		w.Items = append(w.Items, trace.Item{
			Arrival:   simclock.FromSeconds(float64(i)),
			PromptLen: 128, OutputLen: 16, Rate: 0,
		})
	}
	return w
}

// coldBurst is n single-shot requests all arriving at t=0 into a cold
// pool.
func coldBurst(n int) trace.Workload {
	w := trace.Workload{Name: "cold-burst"}
	for i := 0; i < n; i++ {
		w.Items = append(w.Items, trace.Item{
			Arrival: 0, PromptLen: 128, OutputLen: 16, Rate: 0,
		})
	}
	return w
}

// runGateway runs a 2-replica scale-to-zero cluster with the given
// gateway depth and scripted decisions. The replicas run SGLang's FCFS
// scheduler, so admission order (and therefore first-token order) follows
// injection order — the observable the FIFO-drain test pins.
func runGateway(t *testing.T, depth int, w trace.Workload, decisions map[int]autoscale.Decision) *cluster.Result {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Replicas: 2,
		Policy:   router.NewLeastQueue(),
		Autoscale: &cluster.AutoscaleConfig{
			Policy:       &scriptPolicy{decisions: decisions},
			Max:          2,
			Warmup:       3 * time.Second,
			ScaleToZero:  true,
			GatewayDepth: depth,
		},
	}, cluster.Engines(rtx4090, system(engine.SystemSGLang, false)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("gateway run timed out")
	}
	return res
}

// TestGatewayEdgeCases is the table of scale-to-zero gateway behaviors:
// shedding bounds, FIFO drain, and the cancelled cold start.
func TestGatewayEdgeCases(t *testing.T) {
	// Every scripted policy eventually walks the pool back to zero so the
	// scale-to-zero control loop terminates.
	downAt := func(ticks ...int) map[int]autoscale.Decision {
		m := map[int]autoscale.Decision{}
		for _, tk := range ticks {
			m[tk] = autoscale.ScaleDown
		}
		return m
	}
	cases := []struct {
		name         string
		depth        int
		n            int
		burst        bool
		wantBuffered int64
		wantShed     int64
		wantServed   int
	}{
		// A zero-capacity gateway sheds every cold arrival immediately;
		// the cold start still fires (asserted below via scale events).
		{"zero-capacity-sheds-immediately", -1, 3, false, 0, 3, 0},
		// A bounded gateway buffers a cold burst to its depth and sheds
		// the excess.
		{"bounded-buffer-sheds-excess", 2, 5, true, 2, 3, 2},
		// A deep gateway buffers everything that arrives before activation
		// (warm-up 3s, arrivals at t=0,1,2) and serves it all.
		{"deep-buffer-serves-all", 64, 3, false, 3, 0, 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w := coldArrivals(tc.n)
			if tc.burst {
				w = coldBurst(tc.n)
			}
			res := runGateway(t, tc.depth, w, downAt(30, 40))
			if res.GatewayBuffered != tc.wantBuffered || res.GatewayShed != tc.wantShed {
				t.Errorf("buffered/shed = %d/%d, want %d/%d",
					res.GatewayBuffered, res.GatewayShed, tc.wantBuffered, tc.wantShed)
			}
			if len(res.Requests) != tc.wantServed || res.Report.Finished != tc.wantServed {
				t.Errorf("served %d (finished %d), want %d",
					len(res.Requests), res.Report.Finished, tc.wantServed)
			}
			// The first cold arrival triggers the scale-up at its own
			// instant, not at the next control tick.
			if len(res.ScaleEvents) == 0 || res.ScaleEvents[0].Kind != cluster.ScaleWarmup ||
				res.ScaleEvents[0].At != 0 {
				t.Errorf("cold start not triggered at t=0: %+v", res.ScaleEvents)
			}
			if err := cluster.CheckInvariants(res, tc.n); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestGatewayDrainIsFIFO: requests buffered across a warm-up drain into
// the first warmed replica in arrival order, with the buffered wait inside
// their TTFT.
func TestGatewayDrainIsFIFO(t *testing.T) {
	res := runGateway(t, 64, coldArrivals(3), map[int]autoscale.Decision{20: autoscale.ScaleDown, 30: autoscale.ScaleDown})
	if res.Report.Finished != 3 {
		t.Fatalf("finished %d/3", res.Report.Finished)
	}
	// All three landed on the single warmed replica.
	served := 0
	for _, rs := range res.PerReplica {
		if rs.Routed > 0 {
			served++
			if rs.Routed != 3 {
				t.Errorf("replica %d served %d requests, want all 3 on the first warmed replica",
					rs.ID, rs.Routed)
			}
		}
	}
	if served != 1 {
		t.Errorf("%d replicas served traffic, want exactly 1", served)
	}
	// FIFO: first-token instants follow arrival order under FCFS.
	for i := 1; i < len(res.Requests); i++ {
		if res.Requests[i].FirstTokenAt < res.Requests[i-1].FirstTokenAt {
			t.Errorf("request %d generated its first token at %v, before request %d at %v",
				res.Requests[i].ID, res.Requests[i].FirstTokenAt,
				res.Requests[i-1].ID, res.Requests[i-1].FirstTokenAt)
		}
	}
	// Queue time is inside TTFT: the t=0 arrival waited out the whole 3s
	// warm-up before it could even prefill.
	if ttft := res.Requests[0].TTFT(); ttft < 3*time.Second {
		t.Errorf("buffered request TTFT %v does not cover the 3s warm-up", ttft)
	}
}

// TestCancelledColdStart: the load vanishes mid-warm-up (a zero-capacity
// gateway shed it), so the replica activates into an empty pool, serves
// nothing, re-buffers nothing, and the policy walks the pool back to zero.
func TestCancelledColdStart(t *testing.T) {
	w := trace.Workload{Name: "one-shot", Items: []trace.Item{
		{Arrival: 0, PromptLen: 128, OutputLen: 16, Rate: 0},
	}}
	res := runGateway(t, -1, w, map[int]autoscale.Decision{6: autoscale.ScaleDown})

	if res.GatewayBuffered != 0 || res.GatewayShed != 1 {
		t.Fatalf("buffered/shed = %d/%d, want 0/1", res.GatewayBuffered, res.GatewayShed)
	}
	if len(res.Requests) != 0 {
		t.Fatalf("%d requests served after a full shed", len(res.Requests))
	}
	// Lifecycle: warm-up at the arrival instant, activation 3s later into
	// a dead pool, then drain and off — back to zero replicas.
	var kinds []cluster.ScaleKind
	for _, ev := range res.ScaleEvents {
		kinds = append(kinds, ev.Kind)
	}
	want := []cluster.ScaleKind{cluster.ScaleWarmup, cluster.ScaleActivate,
		cluster.ScaleDrain, cluster.ScaleOff}
	if len(kinds) != len(want) {
		t.Fatalf("scale events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("scale events %v, want %v", kinds, want)
		}
	}
	for _, rs := range res.PerReplica {
		if rs.State != autoscale.Off {
			t.Errorf("replica %d ended %v, want off", rs.ID, rs.State)
		}
	}
	// The aborted cold start still burned GPU-seconds — warm-up is paid
	// whether or not the demand survives it.
	if res.GPUSeconds <= 0 {
		t.Error("cancelled cold start reported no GPU-seconds")
	}
	if err := cluster.CheckInvariants(res, 1); err != nil {
		t.Error(err)
	}
}

// TestScaleToZeroTerminatesAllPolicies: every built-in policy must walk
// an idle scale-to-zero pool back to Off in bounded time — the control
// loop keeps ticking until the pool is dark, so a policy that can never
// decide "down" when idle (e.g. kv-utilization judging pinned-prefix
// utilization) would spin the clock to the 4-hour MaxSimTime.
func TestScaleToZeroTerminatesAllPolicies(t *testing.T) {
	w := trace.Sessions("terminate", trace.SessionConfig{
		Sessions: 8,
		Duration: simclock.FromSeconds(30),
		Rates:    trace.FixedRate(20),
		Seed:     3,
	})
	for _, name := range autoscale.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			pol, err := autoscale.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := cluster.New(cluster.Config{
				Replicas: 2,
				Policy:   router.NewLeastQueue(),
				Autoscale: &cluster.AutoscaleConfig{
					Policy:      pol,
					Max:         2,
					Warmup:      2 * time.Second,
					ScaleToZero: true,
				},
			}, cluster.Engines(rtx4090, tokenFlow))
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			if res.TimedOut {
				t.Fatal("scale-to-zero run timed out: the policy never reached zero")
			}
			for _, rs := range res.PerReplica {
				if rs.State != autoscale.Off {
					t.Errorf("replica %d ended %v, want off", rs.ID, rs.State)
				}
			}
			// The idle-drain tail must be minutes, not hours: the pool
			// dies within a few down-streaks of the last token.
			if res.SimEnd.Seconds() > res.Makespan.Seconds()+120 {
				t.Errorf("pool lingered %ds after the last token (SimEnd %v, makespan %v)",
					int(res.SimEnd.Seconds()-res.Makespan.Seconds()), res.SimEnd, res.Makespan)
			}
			if err := cluster.CheckInvariants(res, w.Len()); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestScaleToZeroRoundTrip: with a latency-driven policy, a workload with
// a long idle gap drops the pool to zero between bursts, cold-starts on
// the second burst, and still serves everything.
func TestScaleToZeroRoundTrip(t *testing.T) {
	var w trace.Workload
	w.Name = "two-bursts"
	for i := 0; i < 4; i++ {
		w.Items = append(w.Items, trace.Item{
			Arrival:   simclock.FromSeconds(float64(i)),
			PromptLen: 256, OutputLen: 32, Rate: 20,
		})
	}
	for i := 0; i < 4; i++ {
		w.Items = append(w.Items, trace.Item{
			Arrival:   simclock.FromSeconds(120 + float64(i)),
			PromptLen: 256, OutputLen: 32, Rate: 20,
		})
	}

	cl, err := cluster.New(cluster.Config{
		Replicas: 2,
		Policy:   router.NewLeastQueue(),
		Autoscale: &cluster.AutoscaleConfig{
			Policy:      autoscale.NewSLOTarget(2 * time.Second),
			Max:         2,
			Warmup:      2 * time.Second,
			ScaleToZero: true,
		},
	}, cluster.Engines(rtx4090, tokenFlow))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("round trip timed out")
	}
	if res.Report.Finished != len(w.Items) {
		t.Fatalf("finished %d/%d", res.Report.Finished, len(w.Items))
	}
	// The pool went dark between the bursts (an Off event before the
	// second burst's arrival) and cold-started again (a second Warmup).
	var offBeforeSecond, warmups int
	for _, ev := range res.ScaleEvents {
		if ev.Kind == cluster.ScaleOff && ev.At < simclock.FromSeconds(120) {
			offBeforeSecond++
		}
		if ev.Kind == cluster.ScaleWarmup {
			warmups++
		}
	}
	if offBeforeSecond == 0 {
		t.Error("pool never reached zero replicas during the idle gap")
	}
	if warmups < 2 {
		t.Errorf("only %d warm-ups: the second burst should have cold-started", warmups)
	}
	// Scale-to-zero pays: GPU-seconds must undercut keeping one replica
	// alive for the whole run.
	if res.GPUSeconds >= res.SimEnd.Seconds() {
		t.Errorf("GPU-seconds %.1f >= always-on single replica %.1f",
			res.GPUSeconds, res.SimEnd.Seconds())
	}
	if res.GatewayBuffered == 0 {
		t.Error("second burst should have buffered in the gateway")
	}
	if err := cluster.CheckInvariants(res, len(w.Items)); err != nil {
		t.Error(err)
	}
}
