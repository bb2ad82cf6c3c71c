// Package lib is a dirty fixture module for simlint's command tests:
// its one panic carries no allow.
package lib

// Half halves an even n.
func Half(n int) int {
	if n%2 != 0 {
		panic("lib: odd n")
	}
	return n / 2
}
