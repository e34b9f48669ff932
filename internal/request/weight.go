package request

// Token weighting of the paper's effective throughput (§7.1.3): a token
// generated while the client buffer holds at most Tau1 of the request's
// output length counts fully, the weight decays linearly to zero at Tau2,
// and tokens generated beyond Tau2 count zero.
const (
	Tau1 = 0.10
	Tau2 = 0.20
)

// TokenWeight is the per-token utility w_{i,j} (Eq. 1 instantiated with
// the effective-throughput thresholds): buffer occupancy B at generation
// time, against thresholds relative to the request's output length L.
// DeliverTokens sums it into Request.Effective as tokens arrive.
func TokenWeight(buffer int, outputLen int) float64 {
	t1 := Tau1 * float64(outputLen)
	t2 := Tau2 * float64(outputLen)
	b := float64(buffer)
	switch {
	case b <= t1:
		return 1
	case b >= t2:
		return 0
	default:
		return (t2 - b) / (t2 - t1)
	}
}
