package testexportok

import "testing"

func TestGauge(t *testing.T) {
	g := &Gauge{}
	g.Set(3)
	if g.last != 3 {
		t.Fatal(g.last)
	}
}
