package dead

import "testing"

// A package's own tests are not roots: testOnly is still flagged.
func TestOnly(t *testing.T) {
	if (counter{}).testOnly() != 1 {
		t.Fatal("testOnly")
	}
}
