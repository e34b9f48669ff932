package kvcache

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// mirrorRig is a host-cache rig (64-page pool, 32-page prefix budget)
// with the given host budget and a flight recorder.
func mirrorRig(t *testing.T, hostPages int) (*testRig, *obs.Recorder) {
	t.Helper()
	cfg := fullConfig()
	cfg.PrefixPages = 32
	cfg.HostCache = true
	cfg.HostCachePages = hostPages
	rig := newRig(t, cfg)
	rec := obs.NewRecorder()
	rig.m.SetObs(rec, 0)
	return rig, rec
}

// classLedger reports the fabric's transfers and bytes on one class.
func classLedger(rig *testRig, c fabric.Class) (transfers, bytes int64) {
	s := rig.ep.Scheduler().ClassStats()[c]
	return s.Transfers, s.Bytes
}

// TestHostMirrorPaths is the host-mirror table: a mirror enters the host
// tier from an evicted pin's drain or as a copy adopted from a peer, and
// goes back to the device as a host reload (ClassReload) or a post-crash
// re-pin (ClassReplicate). Every source, class, landing outcome and host
// budget is crossed; each row checks the booked wire, the fabric class
// ledger, the Stats counters (reload counters move only on ClassReload),
// the install/drop rules, the mirror's consumption under a host budget,
// and the crash-epoch guard.
func TestHostMirrorPaths(t *testing.T) {
	const session = 7
	outcomes := []string{"installs", "pin-mid-flight", "over-prefix-budget", "pool-full", "crash"}
	for _, source := range []string{"evicted-pin", "adopted"} {
		for _, class := range []fabric.Class{fabric.ClassReload, fabric.ClassReplicate} {
			for _, outcome := range outcomes {
				for _, budget := range []int{0, 48} {
					if outcome == "over-prefix-budget" && source == "evicted-pin" {
						continue // an evicted pin always fit the prefix budget
					}
					name := fmt.Sprintf("%s/%v/%s/budget=%d", source, class, outcome, budget)
					t.Run(name, func(t *testing.T) {
						rig, rec := mirrorRig(t, budget)
						tokens := 160 // 10 pages
						if outcome == "over-prefix-budget" {
							tokens = 640 // 40 pages > PrefixPages 32
						}
						pages := rig.m.Pages(tokens)
						readyAt := simclock.Time(0)
						switch source {
						case "evicted-pin":
							finishAs(t, rig, 1, session, tokens, 0)
							rig.m.ReclaimPrefixPages(pages, 0, 0)
							rig.clock.Run() // the dirty pages drain to host
						case "adopted":
							readyAt = simclock.Time(5 * time.Millisecond)
							if !rig.m.AdoptMirror(session, tokens, readyAt) {
								t.Fatal("adopt refused")
							}
						}
						if got := rig.m.MirrorTokens(session); got != tokens {
							t.Fatalf("mirror tokens = %d, want %d", got, tokens)
						}
						if got := rig.m.HostMirroredPages(); got != pages {
							t.Fatalf("mirrored pages = %d, want %d", got, pages)
						}

						now := rig.clock.Now()
						done, gotTokens, gotBytes, ok := rig.m.ReloadMirror(session, class, now)
						bytes := int64(pages) * rig.m.PageBytes()
						if !ok || gotTokens != tokens || gotBytes != bytes {
							t.Fatalf("booking = (%v, %d, %d, %v), want %d tokens, %d bytes",
								done, gotTokens, gotBytes, ok, tokens, bytes)
						}
						if want := max(now, readyAt).Add(rig.h2d.TransferTime(bytes)); done != want {
							t.Errorf("lands at %v, want %v (starts once the mirror is ready)", done, want)
						}
						if _, _, _, again := rig.m.ReloadMirror(session, class, now); again {
							t.Error("a mirror on the wire booked twice")
						}
						if rig.m.HostMirrorTokens(session) != 0 {
							t.Error("a mirror on the wire still offers a reload")
						}

						installed := false
						pinAfter := 0
						switch outcome {
						case "installs":
							installed, pinAfter = true, tokens
						case "pin-mid-flight":
							if !rig.m.InstallPrefix(session, 80, now) {
								t.Fatal("mid-flight pin refused")
							}
							pinAfter = 80
						case "pool-full":
							hog := newReq(99, rig.m.FreePages()*16, 1)
							if err := rig.m.AllocateResident(hog, rig.m.FreePages()*16); err != nil {
								t.Fatal(err)
							}
						case "crash":
							rig.m.Crash()
						}
						rig.clock.Run()

						if got := rig.m.PeekPrefix(session); got != pinAfter {
							t.Errorf("pin after landing = %d tokens, want %d", got, pinAfter)
						}
						wantMirror := tokens
						if outcome == "crash" || installed && budget > 0 {
							wantMirror = 0 // died with the replica / consumed by the install
						}
						if got := rig.m.MirrorTokens(session); got != wantMirror {
							t.Errorf("mirror after landing = %d tokens, want %d", got, wantMirror)
						}
						if outcome == "crash" && rig.m.FreePages() != rig.m.TotalPages() {
							t.Errorf("a pre-crash booking charged the backfilled pool: %d of %d free",
								rig.m.FreePages(), rig.m.TotalPages())
						}
						if wantMirror > 0 && rig.m.HostMirrorTokens(session) == 0 && pinAfter == 0 {
							t.Error("a landed mirror does not offer a reload again")
						}

						other := fabric.ClassReplicate
						if class == fabric.ClassReplicate {
							other = fabric.ClassReload
						}
						if n, b := classLedger(rig, class); n != 1 || b != bytes {
							t.Errorf("%v ledger = %d transfers, %d bytes; want 1, %d", class, n, b, bytes)
						}
						if n, _ := classLedger(rig, other); n != 0 {
							t.Errorf("%v ledger = %d transfers, want 0", other, n)
						}
						wantEvicts := int64(0)
						if source == "evicted-pin" {
							wantEvicts = 1
						}
						if n, _ := classLedger(rig, fabric.ClassEvict); n != wantEvicts {
							t.Errorf("evict ledger = %d transfers, want %d", n, wantEvicts)
						}

						var want Stats
						wantReloadEvents := 0
						if class == fabric.ClassReload {
							want.BytesReloaded = bytes
							wantReloadEvents = 1
							switch {
							case installed:
								want.HostReloads, want.HostReloadTokens = 1, int64(tokens)
							case outcome != "crash":
								want.HostReloadDrops = 1
							}
						}
						s := rig.m.Stats()
						got := Stats{HostReloads: s.HostReloads, HostReloadTokens: s.HostReloadTokens,
							HostReloadDrops: s.HostReloadDrops, BytesReloaded: s.BytesReloaded}
						if got != want {
							t.Errorf("reload counters = %+v, want %+v", got, want)
						}
						if n := rec.CountKind(obs.KindKVReload); n != wantReloadEvents {
							t.Errorf("%d kv-reload events, want %d", n, wantReloadEvents)
						}
						if n := rec.CountKind(obs.KindKVMirror); n != 1 {
							t.Errorf("%d kv-mirror events, want 1", n)
						}
					})
				}
			}
		}
	}
}

// TestHostMirrorInsertRules: both ways into the host tier — an evicted
// pin's mirror and a peer's adopted copy — follow one set of rules: a
// larger mirror replaces a smaller one, a mirror at least as large or
// one on the wire is kept, the oldest mirror drops when the host budget
// overflows, a mirror larger than the whole budget is refused without an
// event and without evicting the others, and nothing is mirrored without
// the host cache.
func TestHostMirrorInsertRules(t *testing.T) {
	insert := map[string]func(t *testing.T, rig *testRig, id, session, tokens int) bool{
		"evicted-pin": func(t *testing.T, rig *testRig, id, session, tokens int) bool {
			before := rig.m.MirrorTokens(session)
			finishAs(t, rig, id, session, tokens, rig.clock.Now())
			rig.m.ReclaimPrefixPages(rig.m.PinnedPrefixPages(), rig.clock.Now(), 0)
			return rig.m.MirrorTokens(session) != before
		},
		"adopted": func(_ *testing.T, rig *testRig, _, session, tokens int) bool {
			return rig.m.AdoptMirror(session, tokens, rig.clock.Now())
		},
	}
	for _, source := range []string{"evicted-pin", "adopted"} {
		put := insert[source]
		t.Run(source, func(t *testing.T) {
			rig, rec := mirrorRig(t, 25)
			if !put(t, rig, 1, 7, 160) { // 10 pages
				t.Fatal("first mirror not inserted")
			}
			if put(t, rig, 2, 7, 160) || put(t, rig, 3, 7, 80) {
				t.Error("a mirror no larger than the held one replaced it")
			}
			if !put(t, rig, 4, 7, 240) || rig.m.MirrorTokens(7) != 240 || rig.m.HostMirroredPages() != 15 {
				t.Errorf("larger mirror: %d tokens, %d pages; want 240, 15",
					rig.m.MirrorTokens(7), rig.m.HostMirroredPages())
			}
			if _, _, _, ok := rig.m.ReloadMirror(7, fabric.ClassReload, rig.clock.Now()); !ok {
				t.Fatal("reload refused")
			}
			if put(t, rig, 5, 7, 320) {
				t.Error("a mirror on the wire was replaced")
			}
			rig.clock.Run() // lands; the budget consumes the mirror
			rig.m.DropPrefix(7, rig.clock.Now())
			rig.clock.Run()
			// 15 pages for session 7 again (the dropped pin re-mirrors), then
			// 20 for session 8 overflow the 25-page budget: the oldest goes.
			if !put(t, rig, 6, 8, 320) {
				t.Fatal("second session's mirror not inserted")
			}
			if rig.m.MirrorTokens(7) != 0 || rig.m.MirrorTokens(8) != 320 || rig.m.HostMirroredPages() != 20 {
				t.Errorf("after overflow: session 7 %d, session 8 %d tokens, %d pages; want 0, 320, 20",
					rig.m.MirrorTokens(7), rig.m.MirrorTokens(8), rig.m.HostMirroredPages())
			}
			// 30 pages alone exceed the 25-page budget.
			mirrors := rec.CountKind(obs.KindKVMirror)
			if put(t, rig, 7, 9, 480) || rig.m.CanMirror(480) || !rig.m.CanMirror(400) {
				t.Error("a mirror larger than the host budget was taken in")
			}
			if n := rec.CountKind(obs.KindKVMirror); n != mirrors {
				t.Errorf("the refused mirror emitted %d mirror events", n-mirrors)
			}
			if rig.m.MirrorTokens(8) != 320 || rig.m.HostMirroredPages() != 20 {
				t.Errorf("the refused mirror left session 8 %d tokens, %d pages; want 320, 20",
					rig.m.MirrorTokens(8), rig.m.HostMirroredPages())
			}
		})
	}
	// A peer's copy larger than the whole budget is refused on arrival.
	small, rec := mirrorRig(t, 25)
	if small.m.AdoptMirror(7, 640, 0) || rec.CountKind(obs.KindKVMirror) != 0 || small.m.HostMirroredPages() != 0 {
		t.Error("adopted a 40-page mirror into a 25-page host budget")
	}
	off := prefixRig(t) // HostCache off
	if off.m.AdoptMirror(7, 160, 0) {
		t.Error("adopted a mirror with the host cache off")
	}
	on, _ := mirrorRig(t, 0)
	if on.m.AdoptMirror(0, 160, 0) || on.m.AdoptMirror(7, 0, 0) {
		t.Error("adopted a sessionless or empty mirror")
	}
}
