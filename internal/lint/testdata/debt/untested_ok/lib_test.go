package untestedok

import "testing"

func TestSettle(t *testing.T) {
	n := &Network{}
	n.Start()
	n.Settle()
}
