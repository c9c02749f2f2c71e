package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"sapalloc/internal/core"
	"sapalloc/internal/obs"
	"sapalloc/internal/obscli"
	"sapalloc/internal/serve"
	"sapalloc/internal/store"
)

// serverStats is one reading of the server process, taken on request over
// its control pipe.
type serverStats struct {
	CPUNs      int64  `json:"cpu_ns"`      // user+sys CPU of the process (getrusage)
	TotalAlloc uint64 `json:"total_alloc"` // runtime.MemStats.TotalAlloc
	HeapLive   uint64 `json:"heap_live"`   // HeapAlloc after a forced GC (gcstats and quit only)
	BaseHeap   uint64 `json:"base_heap"`   // the same reading at process start, before set-up
	Counters   map[string]int64
	Hists      map[string][2]int64 // name → {count, sum}
}

// serveMain runs the server under test in this process, configured as
// cmd/sapserved configures it with its default flags (obs metrics on,
// tracing off), behind a loopback listener. It prints {"addr": ...} on
// stdout once listening, then answers control lines on stdin with one JSON
// serverStats line each: "stats", "gcstats" (forced GC first) and "quit"
// (drain, shut down, close the store, final stats). EOF on stdin also quits.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	storeDir := fs.String("store-dir", "", "durable solve store directory (empty = none)")
	cacheEntries := fs.Int("cache-entries", 4096, "canonicalization cache: max cached responses")
	obsFlags := obscli.RegisterServing(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := liveHeap()
	if _, err := obsFlags.Start("sapserved"); err != nil {
		return err
	}
	cfg := serve.Config{
		Params:       core.Params{Eps: 0.5},
		MaxTimeout:   30 * time.Second,
		Queue:        64,
		RetryAfter:   time.Second,
		MaxBodyBytes: 32 << 20,
		CacheEntries: *cacheEntries,
		CacheTasks:   1 << 20,
		MaxSessions:  1024,
		SessionTTL:   15 * time.Minute,
	}
	var st *store.File
	if *storeDir != "" {
		var err error
		if st, err = store.OpenFile(*storeDir, store.FileConfig{}); err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		cfg.Store = st
	}
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]string{"addr": ln.Addr().String()}); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd := strings.TrimSpace(in.Text())
		if cmd == "quit" {
			break
		}
		if err := out.Encode(readStats(base, cmd == "gcstats")); err != nil {
			return err
		}
	}
	srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if st != nil {
		if err := st.Close(); err != nil {
			return fmt.Errorf("close store: %w", err)
		}
	}
	return out.Encode(readStats(base, true))
}

// liveHeap is HeapAlloc after two forced collections: the second empties
// the sync.Pool victim caches the first one only demotes, so pooled
// scratch arenas do not count as live.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func readStats(base uint64, gc bool) serverStats {
	s := serverStats{BaseHeap: base, Counters: map[string]int64{}, Hists: map[string][2]int64{}}
	if gc {
		s.HeapLive = liveHeap()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.TotalAlloc = ms.TotalAlloc
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.CPUNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	snap := obs.Snapshot()
	for k, v := range snap.Counters {
		s.Counters[k] = v
	}
	for k, h := range snap.Histograms {
		s.Hists[k] = [2]int64{h.Count, h.Sum}
	}
	return s
}

// server is the benchmark's handle on one server process.
type server struct {
	cmd *exec.Cmd
	ctl io.WriteCloser
	out *bufio.Scanner
	url string
}

// startServer starts this binary in server mode with the extra flags and
// waits until it listens.
func startServer(args ...string) (*server, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append([]string{"-serve"}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	ctl, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, ctl: ctl, out: bufio.NewScanner(stdout)}
	s.out.Buffer(make([]byte, 64<<10), 4<<20)
	var hello struct{ Addr string }
	if err := s.read(&hello); err != nil {
		s.kill()
		return nil, fmt.Errorf("server start: %w", err)
	}
	s.url = "http://" + hello.Addr
	return s, nil
}

func (s *server) read(v any) error {
	if !s.out.Scan() {
		if err := s.out.Err(); err != nil {
			return err
		}
		return io.ErrUnexpectedEOF
	}
	return json.Unmarshal(s.out.Bytes(), v)
}

func (s *server) command(cmd string) (serverStats, error) {
	var st serverStats
	if _, err := io.WriteString(s.ctl, cmd+"\n"); err != nil {
		return st, err
	}
	err := s.read(&st)
	return st, err
}

// stats reads the server's counters; gc forces a collection first so
// HeapLive is the live heap.
func (s *server) stats(gc bool) (serverStats, error) {
	if gc {
		return s.command("gcstats")
	}
	return s.command("stats")
}

// stop drains and shuts the server down, closing its store, and waits for
// the process to exit. It returns the final reading. Wait closes the
// stdout pipe, so it runs only after the last read.
func (s *server) stop() (serverStats, error) {
	st, err := s.command("quit")
	_ = s.ctl.Close()
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case werr := <-done:
		if err == nil && werr != nil {
			err = fmt.Errorf("server exited: %w", werr)
		}
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		err = errors.New("server did not exit after quit")
	}
	return st, err
}

// kill ends the process at once and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}
