package obs

import (
	"os"
	"strings"
)

// PeakRSS returns ", VmHWM <n> kB", the calling process's peak resident set
// as /proc/self/status reports it, or "" where there is no such file. The
// wire commands end a summary line with it: a parent cannot read a child's
// peak from wait4, which reports the parent's own mark inherited across the
// fork.
func PeakRSS() string {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return ", VmHWM " + strings.TrimSpace(rest)
		}
	}
	return ""
}
