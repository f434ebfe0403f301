package nn

import (
	"syscall"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE scheduling policy (<sched.h>).
const schedIdle = 5

// idleThread puts the calling OS thread in the kernel's idle
// scheduling class, in which it runs only when no other thread of the
// machine wants the CPU. A kernel that refuses leaves the thread as it
// was: the trainer then runs at normal priority.
func idleThread() {
	var param struct{ priority int32 } // struct sched_param; SCHED_IDLE takes priority 0
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
}
