package untested

import "testing"

func TestStart(t *testing.T) { (&Network{}).Start() }
