package linalg

import "testing"

// TestZerosContract: Zeros is make — zeroed, with exactly the length and
// capacity asked for — below the huge-page threshold, at it and above it.
// Whether the kernel granted huge pages depends on the host and is not
// asserted.
func TestZerosContract(t *testing.T) {
	for _, n := range []int{0, 1, hugeMin/8 - 1, hugeMin / 8, 3*hugeMin/8 + 5} {
		s := Zeros(n)
		if len(s) != n || cap(s) != n {
			t.Errorf("Zeros(%d): len %d cap %d", n, len(s), cap(s))
		}
		for i, v := range s {
			if v != 0 {
				t.Fatalf("Zeros(%d)[%d] = %v", n, i, v)
			}
		}
	}
}
