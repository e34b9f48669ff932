package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// kernel is a fixed stdlib-only calibration workload: a pointer chase over
// a shuffled ring, map inserts and lookups, and a sort. Its work never
// changes and it allocates nothing after construction, so its run time
// measures how much CPU the host gives the process right now: a
// repetition whose kernel ran far slower than is usual for the invocation
// ran on a contended host.
type kernel struct {
	next  []int32 // ring successor of each slot
	keys  []int   // map keys, in insertion order
	m     map[int]int
	src   []int // the unsorted input, restored before every sort
	sortd []int
}

// referenceKernel is the kernel's time on an uncontended host of the kind
// the benchmark is sized for, a 2-vCPU Xeon VM. End-to-end wall times are
// reported in that host's time: each repetition's wall times are scaled by
// referenceKernel over the mean of the kernels run just before and just
// after it. On a shared host the kernel slows with the simulator when
// neighbours contend for the caches and memory (their per-repetition
// correlation measured 0.6-0.9), so the scaling removes much of the
// minutes-long slow episodes that raw wall time carries.
const referenceKernel = 20 * time.Millisecond

const (
	kernelSize = 1 << 17
	// kernelPasses is how many passes one calibration runs; it reports the
	// median pass, which a single preempted pass does not move.
	kernelPasses = 5
)

func newKernel() *kernel {
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(kernelSize)
	k := &kernel{
		next:  make([]int32, kernelSize),
		keys:  perm[:kernelSize/4],
		m:     make(map[int]int, kernelSize/4),
		src:   make([]int, kernelSize),
		sortd: make([]int, kernelSize),
	}
	for i := range perm {
		k.next[perm[i]] = int32(perm[(i+1)%kernelSize])
	}
	for i := range k.src {
		k.src[i] = rng.Int()
	}
	return k
}

// calibrate runs the kernel kernelPasses times and returns the median
// pass's wall time.
func (k *kernel) calibrate() (time.Duration, error) {
	var passes []float64
	for i := 0; i < kernelPasses; i++ {
		d, err := k.pass()
		if err != nil {
			return 0, err
		}
		passes = append(passes, d.Seconds())
	}
	return time.Duration(median(passes) * float64(time.Second)), nil
}

// pass executes the kernel once and returns its wall time.
func (k *kernel) pass() (time.Duration, error) {
	t0 := time.Now()
	at, laps := int32(0), 0
	for i := 0; i < 4*kernelSize; i++ {
		at = k.next[at]
		if at == 0 {
			laps++
		}
	}
	clear(k.m)
	for i, key := range k.keys {
		k.m[key] = i
	}
	hits := 0
	for i := 0; i < kernelSize; i++ {
		if _, ok := k.m[i]; ok {
			hits++
		}
	}
	copy(k.sortd, k.src)
	sort.Ints(k.sortd)
	d := time.Since(t0)
	if laps != 4 || hits != len(k.keys) || !sort.IntsAreSorted(k.sortd) {
		return d, fmt.Errorf("calibration kernel miscomputed (%d laps, %d hits)", laps, hits)
	}
	return d, nil
}
