package testexport

// A test-file caller does not count.
func resetForTest(c *Counter) {
	c.Reset()
	zero(c)
}
