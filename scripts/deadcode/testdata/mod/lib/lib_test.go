package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly(3) != 0 || testOnly() != 0 {
		t.Fatal("TestOnly")
	}
}
