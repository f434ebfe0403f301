package nn

import (
	"syscall"
	"testing"
)

// TestTrainerThreadIsIdle: the trainer's jobs run on a thread in the
// kernel's idle scheduling class, and the test's own thread is not
// moved into it.
func TestTrainerThreadIsIdle(t *testing.T) {
	policy := func() uintptr {
		p, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETSCHEDULER, 0, 0, 0)
		if errno != 0 {
			t.Errorf("sched_getscheduler: %v", errno)
		}
		return p
	}
	tr := NewTrainer()
	defer tr.Close()
	got := make(chan uintptr)
	tr.Submit(func() { got <- policy() })
	if p := <-got; p != schedIdle {
		t.Errorf("a trainer job runs under scheduling policy %d, want SCHED_IDLE (%d)", p, schedIdle)
	}
	if p := policy(); p == schedIdle {
		t.Error("the submitting thread was moved into the idle class")
	}
}
