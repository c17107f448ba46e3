package obs

import (
	"os"
	"regexp"
	"testing"
)

// TestPeakRSS: where /proc/self/status exists, PeakRSS is the suffix the
// wire commands' summary lines end with; elsewhere it is empty.
func TestPeakRSS(t *testing.T) {
	got := PeakRSS()
	if _, err := os.Stat("/proc/self/status"); err != nil {
		if got != "" {
			t.Fatalf("PeakRSS() = %q without /proc, want empty", got)
		}
		return
	}
	if !regexp.MustCompile(`^, VmHWM [1-9][0-9]* kB$`).MatchString(got) {
		t.Fatalf("PeakRSS() = %q, want \", VmHWM <n> kB\"", got)
	}
}
