package cluster

// Test access to the barrier window mode (shards.go), so the sharded
// suites can run every window inline or fanned out whatever the fan-out
// gate would choose.

// WindowMode is a barrier window mode.
type WindowMode = windowMode

// Barrier window modes.
const (
	WindowGated  = windowGated
	WindowInline = windowInline
	WindowFanout = windowFanout
)

// SetWindowMode forces how c executes its barrier windows.
func (c *Cluster) SetWindowMode(m WindowMode) { c.windowMode = m }

// WithholdLoadBoard drops c's live load board before Run, so the policies
// that read router.Request.Loads scan the routing view instead: the
// reference the board is held to (loads.go).
func (c *Cluster) WithholdLoadBoard() {
	c.loads = nil
	c.initLoadObservers()
}

// HasLoadBoard reports whether c routes with a live load board.
func (c *Cluster) HasLoadBoard() bool { return c.loads != nil }
