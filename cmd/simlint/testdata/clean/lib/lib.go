// Package lib is a clean fixture module for simlint's command tests:
// its one panic carries a reasoned allow, the module's one debt site.
package lib

// Half halves an even n.
func Half(n int) int {
	if n%2 != 0 {
		panic("lib: odd n") //simlint:allow no-library-panic caller-contract assertion: an odd n is a caller bug
	}
	return n / 2
}
