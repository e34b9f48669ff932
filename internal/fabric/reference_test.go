package fabric

import (
	"fmt"

	"repro/internal/gpu"
)

// refTopology is the eager layout NewTopology built before pair paths
// became lazy: every FullMesh pair link and every pair's path laid out up
// front, O(N²) links and slices. It is kept only as the reference
// FuzzTopologyPaths holds the lazy Topology to.
type refTopology struct {
	n int

	hostD2H, hostH2D []*gpu.Link

	// pair[i][j] is the FullMesh link from replica i to j (nil diagonal).
	pair [][]*gpu.Link
	// egress[i] / ingress[i] are replica i's SharedNIC uplink directions;
	// sw is the optional shared switch stage.
	egress, ingress []*gpu.Link
	sw              *gpu.Link

	// paths[i][j] is the precomputed link sequence from replica i to j
	// (nil diagonal).
	paths [][][]*gpu.Link
}

// newRefTopology lays out the whole interconnect of a normalized spec.
func newRefTopology(replicas int, spec Spec) *refTopology {
	t := &refTopology{
		n:       replicas,
		hostD2H: make([]*gpu.Link, replicas),
		hostH2D: make([]*gpu.Link, replicas),
	}
	bps := spec.LinkGBps * 1e9
	switch spec.Kind {
	case FullMesh:
		t.pair = make([][]*gpu.Link, replicas)
		for i := range t.pair {
			t.pair[i] = make([]*gpu.Link, replicas)
			for j := range t.pair[i] {
				if i != j {
					t.pair[i][j] = gpu.NewLink(fmt.Sprintf("ic-%d-%d", i, j), bps)
				}
			}
		}
	case SharedNIC:
		t.egress = make([]*gpu.Link, replicas)
		t.ingress = make([]*gpu.Link, replicas)
		for i := 0; i < replicas; i++ {
			t.egress[i] = gpu.NewLink(fmt.Sprintf("nic-out-%d", i), bps)
			t.ingress[i] = gpu.NewLink(fmt.Sprintf("nic-in-%d", i), bps)
		}
		if spec.SwitchGBps > 0 {
			t.sw = gpu.NewLink("switch", spec.SwitchGBps*1e9)
		}
	}
	t.paths = make([][][]*gpu.Link, replicas)
	for i := range t.paths {
		t.paths[i] = make([][]*gpu.Link, replicas)
		for j := range t.paths[i] {
			if i == j {
				continue
			}
			if spec.Kind == FullMesh {
				t.paths[i][j] = []*gpu.Link{t.pair[i][j]}
				continue
			}
			path := []*gpu.Link{t.egress[i]}
			if t.sw != nil {
				path = append(path, t.sw)
			}
			t.paths[i][j] = append(path, t.ingress[j])
		}
	}
	return t
}

func (t *refTopology) attachHost(replica int, bytesPerSec float64) {
	t.hostD2H[replica] = gpu.NewLink(fmt.Sprintf("host-d2h-%d", replica), bytesPerSec)
	t.hostH2D[replica] = gpu.NewLink(fmt.Sprintf("host-h2d-%d", replica), bytesPerSec)
}

// links lists every link: attached host pairs, then the pair links row by
// row, then the NICs and the switch.
func (t *refTopology) links() []*gpu.Link {
	var out []*gpu.Link
	for i := 0; i < t.n; i++ {
		if t.hostD2H[i] != nil {
			out = append(out, t.hostD2H[i], t.hostH2D[i])
		}
	}
	for _, row := range t.pair {
		for _, l := range row {
			if l != nil {
				out = append(out, l)
			}
		}
	}
	for i := range t.egress {
		out = append(out, t.egress[i], t.ingress[i])
	}
	if t.sw != nil {
		out = append(out, t.sw)
	}
	return out
}

// linksResolved is links restricted to the pairs resolved so far: the
// pair links of the given pairs stand in their first-use order where the
// pair section was, and the links of unresolved pairs are dropped.
func (t *refTopology) linksResolved(resolved [][2]int) []*gpu.Link {
	isPair := map[*gpu.Link]bool{}
	for _, row := range t.pair {
		for _, l := range row {
			if l != nil {
				isPair[l] = true
			}
		}
	}
	var out []*gpu.Link
	placed := false
	for _, l := range t.links() {
		if !isPair[l] {
			out = append(out, l)
			continue
		}
		if !placed {
			for _, p := range resolved {
				out = append(out, t.pair[p[0]][p[1]])
			}
			placed = true
		}
	}
	return out
}
