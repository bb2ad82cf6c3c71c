package panicsok

// Test files may panic freely; the check never looks at them.
func mustTake(b *Box) int {
	n, err := b.take()
	if err != nil {
		panic(err)
	}
	return n
}
