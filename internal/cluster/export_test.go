package cluster

// WithholdLoadBoard drops c's live load board before Run, so the policies
// that read router.Request.Loads scan the routing view instead: the
// reference the board is held to (loads.go).
func (c *Cluster) WithholdLoadBoard() {
	c.loads = nil
	c.initLoadObservers()
}

// HasLoadBoard reports whether c routes with a live load board.
func (c *Cluster) HasLoadBoard() bool { return c.loads != nil }
