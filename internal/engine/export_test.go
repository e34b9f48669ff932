package engine

// Test hooks for the external engine_test package.
var (
	NewStandalone = newStandalone
	Drive         = drive
	SmallConfig   = testConfig
)
