package tokenflow_test

// Export digests pin the flight recorder's files across revisions: two
// routed scenarios with every obs layer on are exported, and the SHA-256
// of each deterministic file must equal the line committed in
// testdata/export-digests.txt. The purity and sharding suites compare
// runs within one build; this test compares a build with the ones before
// it, so a refactor of the recorder that moves one byte of an export
// fails here. profile.json holds wall-clock times and is left out.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/tokenflow"
)

// digestFiles are the exports whose bytes depend only on the simulation.
var digestFiles = []string{"events.jsonl", "trace.json", "series.csv", "attribution.json"}

// digestScenarios are the shapes of the CLI's sim-chaos and sim-index
// goldens, run with -obs-out: crashes, a link flap, migration, the host
// cache and K=2 redundancy; and scale-to-zero autoscaling behind a stale
// prefix index with seeded random chaos.
func digestScenarios() []struct {
	name string
	cfg  tokenflow.ClusterConfig
	w    tokenflow.Workload
} {
	base := func(hostCache bool) tokenflow.Config {
		return tokenflow.Config{
			System:          tokenflow.SystemTokenFlow,
			GPU:             "H200",
			Model:           "Llama3-8B",
			MemFraction:     0.9,
			HostPrefixCache: hostCache,
			SampleEvery:     250 * time.Millisecond,
			Obs:             tokenflow.ObsSpec{Events: true, Series: true, Profile: true, Attribution: true},
		}
	}
	topo := &tokenflow.TopologySpec{Kind: "full-mesh", LinkGBps: 25}
	return []struct {
		name string
		cfg  tokenflow.ClusterConfig
		w    tokenflow.Workload
	}{
		{
			name: "chaos",
			cfg: tokenflow.ClusterConfig{
				Config:          base(true),
				Replicas:        4,
				Router:          tokenflow.RouterSessionAffinity,
				Migrate:         true,
				MigrationPolicy: "always",
				Topology:        topo,
				Chaos: &tokenflow.ChaosSpec{
					Seed:       1,
					Horizon:    tokenflow.Time(120 * time.Second),
					Redundancy: 2,
					Faults: []tokenflow.FaultSpec{
						{Kind: tokenflow.FaultCrash, Replica: 1, At: tokenflow.Time(30 * time.Second)},
						{Kind: tokenflow.FaultLinkFlap, From: 0, To: 2,
							At: tokenflow.Time(20 * time.Second), Duration: 5 * time.Second},
					},
				},
			},
			w: tokenflow.SessionSpikesWorkload(150, 120, 60, 20, 1),
		},
		{
			name: "index",
			cfg: tokenflow.ClusterConfig{
				Config:          base(false),
				Replicas:        3,
				Router:          tokenflow.RouterPolicy("indexed-session-affinity"),
				MigrationPolicy: "always",
				Topology:        topo,
				PrefixIndex: &tokenflow.PrefixIndexSpec{
					PropagationDelay: 50 * time.Millisecond,
					HeartbeatEvery:   250 * time.Millisecond,
					Seed:             1,
				},
				Chaos: &tokenflow.ChaosSpec{
					RandomFaults: 3,
					Seed:         1,
					Horizon:      tokenflow.Time(60 * time.Second),
				},
				Autoscale: &tokenflow.AutoscaleSpec{
					Policy:        "queue-pressure",
					Warmup:        8 * time.Second,
					ScaleToZero:   true,
					TargetP99TTFT: 2 * time.Second,
				},
			},
			w: tokenflow.SessionWorkload(100, 60, 20, 1),
		},
	}
}

// TestExportDigests runs each scenario into a fresh Out directory and
// compares every deterministic export's SHA-256 with the committed list.
// On a mismatch it prints the whole list as measured; replace the file
// with it only for an intended change to the exports.
func TestExportDigests(t *testing.T) {
	want, err := readDigests(filepath.Join("testdata", "export-digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, sc := range digestScenarios() {
		dir := t.TempDir()
		cfg := sc.cfg
		cfg.Obs.Out = dir
		res, err := tokenflow.RunCluster(cfg, sc.w)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if res.Cluster.TimedOut {
			t.Fatalf("%s: timed out", sc.name)
		}
		for _, f := range digestFiles {
			b, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			sum := sha256.Sum256(b)
			got = append(got, fmt.Sprintf("%s  %s/%s", hex.EncodeToString(sum[:]), sc.name, f))
		}
	}
	mismatch := len(got) != len(want)
	for i := 0; !mismatch && i < len(got); i++ {
		mismatch = got[i] != want[i]
	}
	if mismatch {
		t.Errorf("export digests changed; measured:\n%s", strings.Join(got, "\n"))
	}
}

// readDigests reads a sha256sum-style list, skipping blank lines and
// # comments.
func readDigests(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out, sc.Err()
}
