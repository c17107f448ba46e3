package linalg

import (
	"syscall"
	"unsafe"
)

// hugePage is the transparent huge page size on x86-64 (and arm64 with
// 4 KiB base pages).
const hugePage = 2 << 20

func init() { adviseHuge = madviseHuge }

// madviseHuge marks the hugePage-aligned interior of b MADV_HUGEPAGE, so
// that its first touch faults in whole huge pages where the kernel's THP
// mode is "madvise" or "always". Under "never" the call does nothing. It is
// advice: an error leaves ordinary pages and is ignored.
func madviseHuge(b []byte) {
	lo := int(-uintptr(unsafe.Pointer(unsafe.SliceData(b))) % hugePage)
	if lo >= len(b) {
		return
	}
	n := (len(b) - lo) / hugePage * hugePage
	if n == 0 {
		return
	}
	_ = syscall.Madvise(b[lo:lo+n], syscall.MADV_HUGEPAGE)
}
