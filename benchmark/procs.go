package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// buildDir is where the server binaries (and, under run.sh, the Go
// build cache) live: a git-ignored directory of the checkout the
// benchmark runs in, so nothing is written outside it.
const buildDir = ".bench_build"

// binaries holds the paths of the two served programs.
type binaries struct {
	cached, router string
	buildSeconds   float64
}

// buildBinaries compiles ravencached and ravenrouter from the checkout
// the benchmark runs in, once per invocation.
func buildBinaries() (binaries, error) {
	wd, err := os.Getwd()
	if err != nil {
		return binaries{}, err
	}
	if _, err := os.Stat(filepath.Join(wd, "cmd", "ravencached", "main.go")); err != nil {
		return binaries{}, fmt.Errorf("run the benchmark from the root of the repository: %w", err)
	}
	dir := filepath.Join(wd, buildDir, "bin")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/ravencached", "./cmd/ravenrouter")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return binaries{}, fmt.Errorf("go build ravencached ravenrouter: %w", err)
	}
	return binaries{
		cached:       filepath.Join(dir, "ravencached"),
		router:       filepath.Join(dir, "ravenrouter"),
		buildSeconds: time.Since(t0).Seconds(),
	}, nil
}

// cpuMask is a sched_setaffinity bit mask (1024 CPUs).
type cpuMask [16]uint64

// pinToOneCPU confines every thread of the benchmark — and so every
// process it spawns afterwards, which inherit the mask — to the
// highest-numbered CPU the benchmark may use.
//
// This is the rig's placement, not a setting of the system under test.
// On the 2-vCPU VM this benchmark was written on, a CPU that goes idle
// between requests is slow to wake: with the load generator on one CPU
// and the server on the other, the 17 µs round trip reads 48-59 µs and
// the pipelined throughput 280-390k req/s from run to run; left to the
// scheduler a run flips between the two regimes. On one CPU the closed
// loop is a chain of context switches on a CPU that never idles and
// repeats within a few percent. It returns the CPU chosen, or -1 if
// pinning failed (the run then proceeds unpinned and noisier).
func pinToOneCPU() int {
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return -1
	}
	cpu := -1
	for i := range mask {
		for b := 0; b < 64; b++ {
			if mask[i]&(1<<b) != 0 {
				cpu = i*64 + b
			}
		}
	}
	if cpu < 0 {
		return -1
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return -1
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that exited since the listing fails with ESRCH;
		// every thread still alive gets the mask, and threads created
		// later inherit it from the thread that clones them.
		_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
	}
	return cpu
}

// serverProcs is the GOMAXPROCS every spawned server runs with. A Go
// program sizes its scheduler from the CPU mask it starts under, which
// would be one P here: a server that moved work off the request path
// (training in a background goroutine) could then only run it between
// requests, in the runtime's 10 ms preemption quanta. Two Ps leave that
// to the kernel, which time-slices two threads on the one CPU the way
// it would on any busy host.
const serverProcs = 2

// proc is one spawned server-side process.
type proc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the stdout reader has drained
}

// live tracks every running child so that each exit path — return,
// fatal error, SIGINT, panic — can kill what is left.
var live struct {
	mu    sync.Mutex
	procs []*proc
}

func killAll() {
	live.mu.Lock()
	ps := append([]*proc(nil), live.procs...)
	live.mu.Unlock()
	stopAll(ps)
}

func stopAll(ps []*proc) {
	for _, p := range ps {
		p.stop()
	}
}

// spawn starts bin with args and waits for its "listening on <addr>"
// line. Pdeathsig makes the kernel kill the child if the benchmark
// itself dies without running its exit paths.
func spawn(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	live.mu.Lock()
	live.procs = append(live.procs, p)
	live.mu.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 64<<10), 4<<20) // "final metrics:" is one long line
		sent := false
		for sc.Scan() {
			if line := sc.Text(); !sent && strings.Contains(line, "listening on ") {
				addrCh <- line[strings.Index(line, "listening on ")+len("listening on "):]
				sent = true
			}
		}
		if !sent {
			close(addrCh)
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			p.stop()
			return nil, fmt.Errorf("%s exited before listening", filepath.Base(bin))
		}
		p.addr = strings.TrimSpace(addr)
		return p, nil
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not start listening within 20s", filepath.Base(bin))
	}
}

// stop terminates the process (SIGTERM, then SIGKILL after 3 s) and
// waits until it has ended. It is idempotent.
func (p *proc) stop() {
	live.mu.Lock()
	running := false
	for i, q := range live.procs {
		if q == p {
			live.procs = append(live.procs[:i], live.procs[i+1:]...)
			running = true
			break
		}
	}
	live.mu.Unlock()
	if !running {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	t := time.AfterFunc(3*time.Second, func() { _ = p.cmd.Process.Kill() })
	<-p.done
	_ = p.cmd.Wait()
	t.Stop()
}

// cpuSeconds returns the CPU time the process has used.
func (p *proc) cpuSeconds() (float64, error) {
	return pidCPUSeconds(strconv.Itoa(p.cmd.Process.Pid))
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat times; it is 100 on
// every Linux architecture Go supports.
const clkTck = 100

// pidCPUSeconds returns the time the threads of a process have spent on
// a CPU: the scheduler's own nanosecond count (schedstat) where the
// kernel keeps one, utime+stime otherwise. The latter is sampled at the
// 10 ms tick, which on a CPU two processes share reads +-8% over a
// one-second phase.
func pidCPUSeconds(pid string) (float64, error) {
	if tasks, err := os.ReadDir("/proc/" + pid + "/task"); err == nil {
		var ns int64
		for _, t := range tasks {
			raw, err := os.ReadFile("/proc/" + pid + "/task/" + t.Name() + "/schedstat")
			if err != nil {
				continue // the thread exited since the listing
			}
			if f := strings.Fields(string(raw)); len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				ns += v
			}
		}
		if ns > 0 {
			return float64(ns) / 1e9, nil
		}
	}
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: short line", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%s/stat: bad utime/stime", pid)
	}
	return float64(ut+st) / clkTck, nil
}

// peakRSSMB returns VmHWM of the process in MB.
func (p *proc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				if err == nil {
					return float64(kb) / 1024, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", p.cmd.Process.Pid)
}

// fleet is the served system of one run: one ravencached, or a
// ravenrouter in front of two.
type fleet struct {
	front *proc // what the client talks to
	nodes []*proc
}

// direct reports whether the client talks to the one cache node itself.
func (f *fleet) direct() bool { return len(f.nodes) == 1 && f.front == f.nodes[0] }

func (f *fleet) all() []*proc {
	if f.direct() {
		return f.nodes
	}
	return append([]*proc{f.front}, f.nodes...)
}

func (f *fleet) stop() { stopAll(f.all()) }

// sum adds one per-process reading over the fleet.
func (f *fleet) sum(read func(*proc) (float64, error)) (float64, error) {
	var total float64
	for _, p := range f.all() {
		v, err := read(p)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

func (f *fleet) cpuSeconds() (float64, error) { return f.sum((*proc).cpuSeconds) }
func (f *fleet) peakRSSMB() (float64, error)  { return f.sum((*proc).peakRSSMB) }

// launch starts the served system for o. Only the flags below are
// passed; every other flag keeps the binary's default (score cache,
// f32, the 50 µs decision budget, the router's timeouts, retries and
// probing), so a later change of a default is measured, not masked.
// The servers' own -seed is not passed either.
func launch(b binaries, s spec, o *ops) (*fleet, error) {
	cached := func(capacity int64, extra ...string) (*proc, error) {
		args := append([]string{
			"-addr", "127.0.0.1:0",
			"-capacity", strconv.FormatInt(capacity, 10),
			"-policy", "raven", "-shards", "1",
			"-window", strconv.FormatInt(o.window, 10),
			"-admit", "learned",
		}, extra...)
		return spawn(b.cached, args...)
	}
	f := &fleet{}
	if !s.routed {
		p, err := cached(o.capacity)
		if err != nil {
			return nil, err
		}
		f.front, f.nodes = p, []*proc{p}
		return f, nil
	}
	var addrs []string
	for i := 0; i < routedNodes; i++ {
		p, err := cached(o.capacity/routedNodes, "-node", strconv.Itoa(i), "-nodes", strconv.Itoa(routedNodes))
		if err != nil {
			stopAll(f.nodes)
			return nil, err
		}
		f.nodes = append(f.nodes, p)
		addrs = append(addrs, p.addr)
	}
	r, err := spawn(b.router, "-addr", "127.0.0.1:0", "-cluster", strings.Join(addrs, ","))
	if err != nil {
		stopAll(f.nodes)
		return nil, err
	}
	f.front = r
	return f, nil
}

// routedNodes is the fleet size behind the router.
const routedNodes = 2
