package gpu

import (
	"fmt"
	"time"

	"repro/internal/simclock"
)

// Link models one direction of the host PCIe connection as a FIFO
// bandwidth queue: transfers serialize, and a transfer enqueued while the
// link is busy starts when the link drains. The KV cache manager uses two
// Links (device-to-host for eviction, host-to-device for loading) because
// PCIe is full duplex.
type Link struct {
	name        string
	bytesPerSec float64

	busyUntil simclock.Time

	// Profiling counters: the scheduler consumes these to estimate I/O
	// latency for its admission and recompute-vs-load decisions (§4.2.3).
	totalBytes int64
	totalBusy  time.Duration
	transfers  int64
}

// NewLink returns a link with the given name (for diagnostics) and
// bandwidth in bytes per second.
func NewLink(name string, bytesPerSec float64) *Link {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("gpu: non-positive link bandwidth %v", bytesPerSec))
	}
	return &Link{name: name, bytesPerSec: bytesPerSec}
}

// Name reports the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// BytesPerSec reports the link's configured bandwidth.
func (l *Link) BytesPerSec() float64 { return l.bytesPerSec }

// TransferTime reports the pure wire time for n bytes (no queueing).
func (l *Link) TransferTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / l.bytesPerSec * float64(time.Second))
}

// Enqueue books an n-byte transfer submitted at time now and reports when
// it starts and completes. Transfers are FIFO: a submission while the link
// is busy starts when the previous transfer finishes. It is Reserve with
// the hold time set by this link's own wire speed.
func (l *Link) Enqueue(now simclock.Time, n int64) (start, done simclock.Time) {
	start = now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	done = start.Add(l.TransferTime(n))
	l.Reserve(start, done, n)
	return start, done
}

// Reserve books the link busy for [start, done] moving n bytes — the
// multi-link transfer path of the fabric, where the hold time is set by the
// path's bottleneck link rather than this link's own wire time. start must
// not precede the link's current backlog: the fabric computes it as the
// max of the path's BusyUntil readings, so regressions are scheduler bugs.
func (l *Link) Reserve(start, done simclock.Time, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("gpu: negative transfer size %d", n))
	}
	if start < l.busyUntil {
		panic(fmt.Sprintf("gpu: link %s reservation at %v before backlog %v", l.name, start, l.busyUntil))
	}
	if done < start {
		panic(fmt.Sprintf("gpu: link %s reservation ends %v before start %v", l.name, done, start))
	}
	l.busyUntil = done
	l.totalBytes += n
	l.totalBusy += done.Sub(start)
	l.transfers++
}

// QueueDelay reports how long a transfer submitted now would wait before
// reaching the wire.
func (l *Link) QueueDelay(now simclock.Time) time.Duration {
	if l.busyUntil <= now {
		return 0
	}
	return l.busyUntil.Sub(now)
}

// BusyUntil reports the virtual time at which the link drains.
func (l *Link) BusyUntil() simclock.Time { return l.busyUntil }

// Stats reports cumulative transferred bytes, cumulative wire-busy time,
// and the number of transfers, for profiling.
func (l *Link) Stats() (bytes int64, busy time.Duration, transfers int64) {
	return l.totalBytes, l.totalBusy, l.transfers
}

// LinkSnapshot is a point-in-time view of a link's profiling counters, so
// consumers (the fabric's accounting, reports) never reach into Link
// fields.
type LinkSnapshot struct {
	// Name is the link's diagnostic name.
	Name string
	// Bytes, Busy, and Transfers are the cumulative counters of Stats.
	Bytes     int64
	Busy      time.Duration
	Transfers int64
	// Backlog is the queueing delay a transfer submitted at the snapshot
	// instant would see before reaching the wire (zero for a drained link).
	Backlog time.Duration
}

// Snapshot captures the link's counters and current backlog at now.
func (l *Link) Snapshot(now simclock.Time) LinkSnapshot {
	return LinkSnapshot{
		Name:      l.name,
		Bytes:     l.totalBytes,
		Busy:      l.totalBusy,
		Transfers: l.transfers,
		Backlog:   l.QueueDelay(now),
	}
}
