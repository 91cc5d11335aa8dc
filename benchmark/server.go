package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what one benchmark process works in: the checkout it measures,
// the binaries it built there and a scratch directory that is removed
// on every exit path. Everything it writes is inside the checkout.
type env struct {
	root    string // checkout root (holds go.mod and cmd/hbserve)
	outDir  string // benchmark/out: results, traces, logs of failed servers
	workDir string // .bench_build/run-<pid>: data dirs and server logs
	hbserve string
	ladder  string

	mu      sync.Mutex
	servers []*server
	serial  int // makes every scratch name of this process distinct
}

// scratch returns a fresh path in the scratch directory. A report of
// several runs starts many servers; none may find another's data dir.
func (e *env) scratch(name string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.serial++
	return filepath.Join(e.workDir, fmt.Sprintf("%s-%d", name, e.serial))
}

// goBuild builds pkg (relative to dir) into out with the checkout-local
// build cache.
func goBuild(root, dir, pkg, out string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(root, ".bench_build", "gocache"),
		"GOFLAGS=-buildvcs=false")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
	}
	return nil
}

// newEnv builds hbserve from the checkout's source (and the ladder
// binary when withLadder) and creates the scratch directory.
func newEnv(root string, withLadder bool) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(root, ".bench_build", "bin")
	e := &env{
		root:    root,
		outDir:  filepath.Join(root, "benchmark", "out"),
		workDir: filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
		hbserve: filepath.Join(bin, "hbserve"),
		ladder:  filepath.Join(bin, "hbladder"),
	}
	for _, d := range []string{bin, e.outDir, e.workDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if err := goBuild(root, root, "./cmd/hbserve", e.hbserve); err != nil {
		return nil, err
	}
	if withLadder {
		if err := goBuild(root, filepath.Join(root, "benchmark"), "./ladder", e.ladder); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// close kills every server still running and removes the scratch
// directory. It is safe to call more than once and from a signal
// handler's goroutine.
func (e *env) close() {
	e.mu.Lock()
	servers := e.servers
	e.servers = nil
	e.mu.Unlock()
	for _, s := range servers {
		s.kill()
	}
	os.RemoveAll(e.workDir)
}

// server is one hbserve subprocess.
type server struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	drained chan struct{} // closed when the stderr reader has finished
	once    sync.Once
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startTimeout bounds exec -> "listening on": a server that never comes
// up fails the run instead of parking it.
const startTimeout = 60 * time.Second

// start runs hbserve with args on an OS-chosen port and returns once it
// logs its listen address. Its stderr goes to a file in the scratch
// directory, which saveLog copies to benchmark/out when a run fails.
func (e *env) start(name string, args []string) (*server, error) {
	logPath := e.scratch(name) + ".log"
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.hbserve, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// If the benchmark itself is killed, the kernel kills the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start hbserve: %w", err)
	}
	s := &server{cmd: cmd, logPath: logPath, drained: make(chan struct{})}
	e.mu.Lock()
	e.servers = append(e.servers, s)
	e.mu.Unlock()

	addrc := make(chan string, 1)
	go func() {
		defer close(s.drained)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Bytes()
			logf.Write(line)
			logf.Write([]byte{'\n'})
			if m := listenRE.FindSubmatch(line); m != nil && !sent {
				addrc <- string(m[1])
				sent = true
			}
		}
		if !sent {
			close(addrc)
		}
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("hbserve exited before listening (log: %s)", e.saveLog(s))
		}
		s.addr = addr
		return s, nil
	case <-time.After(startTimeout):
		s.kill()
		return nil, fmt.Errorf("hbserve did not listen within %v (log: %s)", startTimeout, e.saveLog(s))
	}
}

// kill sends SIGKILL and waits for the process and its log reader.
func (s *server) kill() {
	s.once.Do(func() {
		s.cmd.Process.Kill()
		<-s.drained // Wait closes the pipe; read it out first
		s.cmd.Wait()
	})
}

// saveLog copies a server's stderr to benchmark/out and returns the path.
func (e *env) saveLog(s *server) string {
	dst := filepath.Join(e.outDir, filepath.Base(s.logPath))
	src, err := os.Open(s.logPath)
	if err != nil {
		return s.logPath
	}
	defer src.Close()
	out, err := os.Create(dst)
	if err != nil {
		return s.logPath
	}
	io.Copy(out, src)
	if out.Close() != nil {
		return s.logPath
	}
	return dst
}

// peakRSSMB reads the peak resident set of pid ("self" for the caller)
// from /proc, in MiB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// cpuSeconds returns the user+system CPU time the server has used.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/" + s.pid() + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields
	// count from after it. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times %q %q", f[11], f[12])
	}
	const userHz = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return (ut + st) / userHz, nil
}

// selfCPUSeconds returns the generator's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
