package request

import "repro/internal/simclock"

// Timeline is a request's whole per-token history, kept only where
// something reads it: the figure replays that need every token's instant
// and the tests that check delivery token by token. Times[j] is output
// token j's generation instant and Buffers[j] the buffer occupancy right
// after it was appended (the B_{i,j} that DeliverTokens weighs into
// Request.Effective). Attach one by setting Request.Timeline before the
// first delivery; a retry reset empties it.
type Timeline struct {
	Times   []simclock.Time
	Buffers []int32
}

// record appends one token. The final size is known, so the records are
// allocated once at the first token and never grown.
func (tl *Timeline) record(at simclock.Time, buf int32, outputLen int) {
	if tl.Times == nil {
		tl.Times = make([]simclock.Time, 0, outputLen)
		tl.Buffers = make([]int32, 0, outputLen)
	}
	tl.Times = append(tl.Times, at)
	tl.Buffers = append(tl.Buffers, buf)
}

func (tl *Timeline) reset() {
	tl.Times = tl.Times[:0]
	tl.Buffers = tl.Buffers[:0]
}
