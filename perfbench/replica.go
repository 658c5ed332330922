package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	osexec "os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// replica is one `kronbip serve` child process.
type replica struct {
	cmd     *osexec.Cmd
	url     string
	drained chan struct{} // closed once stderr hits EOF
}

// startReplica launches `bin serve` on an ephemeral loopback port with
// the service's defaults and GOMAXPROCS unset, and returns once the
// process has printed its "listening on" line and answered /readyz.
func startReplica(bin string, client *http.Client) (*replica, error) {
	cmd := osexec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start replica: %w", err)
	}
	r := &replica{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(r.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on http://"); ok {
				addr <- strings.Fields(a)[0]
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		r.url = "http://" + a
	case <-r.drained:
		_ = r.stop()
		return nil, errors.New("replica exited before listening")
	case <-time.After(30 * time.Second):
		_ = r.stop()
		return nil, errors.New("replica printed no listening line within 30s")
	}
	resp, err := client.Get(r.url + "/readyz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/readyz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		_ = r.stop()
		return nil, fmt.Errorf("replica readiness: %w", err)
	}
	return r, nil
}

// stop interrupts the replica (a graceful drain), kills it if the drain
// overruns, and waits for the process and its stderr reader to end.
func (r *replica) stop() error {
	if r.cmd.Process == nil {
		return nil
	}
	_ = r.cmd.Process.Signal(os.Interrupt)
	done := make(chan error, 1)
	go func() {
		<-r.drained
		done <- r.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(40 * time.Second):
		_ = r.cmd.Process.Kill()
		return <-done
	}
}

// cpu returns the replica's user+sys CPU so far, from /proc/<pid>/stat.
func (r *replica) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", r.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", r.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", r.cmd.Process.Pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// rss returns the replica's resident set in bytes, from /proc/<pid>/statm.
func (r *replica) rss() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", r.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, errors.New("short statm")
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize()), err
}

// peakRSS reads VmHWM, in bytes, from /proc/<pid>/status ("self" for
// this process).
func peakRSS(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM")
}

// selfCPU is this process's user+sys CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fleet is the set of replicas one run drives.
type fleet []*replica

func (f fleet) urls() []string {
	u := make([]string, len(f))
	for i, r := range f {
		u[i] = r.url
	}
	return u
}

func (f fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, r := range f {
		c, err := r.cpu()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func (f fleet) rss() (int64, error) {
	var total int64
	for _, r := range f {
		b, err := r.rss()
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}

func (f fleet) peakRSS() (int64, error) {
	var peak int64
	for _, r := range f {
		b, err := peakRSS(strconv.Itoa(r.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		peak = max(peak, b)
	}
	return peak, nil
}

func (f fleet) stop() error {
	var first error
	for _, r := range f {
		if err := r.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// rssSampler samples a fleet's summed RSS at a fixed interval until
// stopped.
type rssSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

func sampleRSS(f fleet, every time.Duration) *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if b, err := f.rss(); err == nil {
				s.samples = append(s.samples, float64(b)/(1<<20))
			}
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the samples.
func (s *rssSampler) stop() []float64 {
	close(s.stopc)
	<-s.done
	return s.samples
}
