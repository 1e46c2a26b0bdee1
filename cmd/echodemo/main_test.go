package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/ecode"
	"repro/internal/obs"
	"repro/internal/tap"
	"repro/internal/wire"
)

// serverEnv, when set, turns the test binary into echodemo: TestMain runs
// main with the child's flags. TestRunServerDebugPlane starts the server
// role this way, exactly as an operator would.
const serverEnv = "ECHODEMO_TEST_SERVER"

func TestMain(m *testing.M) {
	if os.Getenv(serverEnv) != "" {
		// The parent holds the write end of stdin: when it dies, however it
		// dies, EOF here takes the server down with it.
		go func() {
			_, _ = io.Copy(io.Discard, os.Stdin)
			os.Exit(0)
		}()
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestQuoteTransformCompiles guards the demo's embedded E-Code against
// drifting from the demo's formats.
func TestQuoteTransformCompiles(t *testing.T) {
	x := &core.Xform{From: quoteV2, To: quoteV1, Code: quoteXform}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ecode.Compile(quoteXform,
		ecode.Param{Name: core.SrcParam, Format: quoteV2},
		ecode.Param{Name: core.DstParam, Format: quoteV1},
	); err != nil {
		t.Fatal(err)
	}
}

// TestRunAll drives the full multi-party scenario in-process.
func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a server and three clients")
	}
	if err := runAll("test-channel", 1); err != nil {
		t.Fatal(err)
	}
	_ = echo.Figure5Transform // the demo leans on the canonical transform
}

var (
	listeningOn = regexp.MustCompile(`listening on (\S+)`)
	debugOn     = regexp.MustCompile(`debug endpoints on (http://\S+)/debug/`)
)

// TestRunServerDebugPlane runs `echodemo -role server -debug` as its own
// process, arms the wire tap, publishes two events on the demo channel and
// reads the server's debug plane back: the golden /metrics series, the
// readiness probes, the /debug/ index, and a morphcap download that holds
// the published data frames.
func TestRunServerDebugPlane(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "server.log")
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	cmd := exec.Command(os.Args[0], "-role", "server", "-addr", "127.0.0.1:0", "-debug", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), serverEnv+"=1")
	cmd.Stdout, cmd.Stderr = logf, logf
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		_ = stdin.Close()
	})

	// Both addresses are logged at startup, which is how a script finds them.
	var addr, base string
	eventually(t, "server logged both addresses", func() bool {
		log, _ := os.ReadFile(logPath)
		a, d := listeningOn.FindSubmatch(log), debugOn.FindSubmatch(log)
		if a == nil || d == nil {
			return false
		}
		addr, base = string(a[1]), string(d[1])
		return true
	})
	get := func(path string) string {
		t.Helper()
		res, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil || res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d (%v): %s", path, res.StatusCode, err, body)
		}
		return string(body)
	}

	get(tap.TapzPath + "?arm=on")
	if err := runPublisher(addr, "quotes", 2); err != nil {
		t.Fatal(err)
	}

	golden := []string{
		"# TYPE morph_echo_delivered_total counter",
		"# TYPE morph_echo_fanout_ns histogram",
		"# TYPE morph_echo_members gauge",
		`morph_echo_channel_delivered_total{channel="quotes"}`,
		"# TYPE morph_wire_data_frames_recv_total counter",
		"# TYPE morph_go_goroutines gauge",
	}
	eventually(t, "golden /metrics series", func() bool {
		metrics := "\n" + get(obs.MetricsPath)
		for _, series := range golden {
			if !strings.Contains(metrics, "\n"+series) {
				return false
			}
		}
		return true
	})

	var ready obs.ReadySnapshot
	if err := json.Unmarshal([]byte(get(obs.ReadyzPath)), &ready); err != nil {
		t.Fatal(err)
	}
	probes := map[string]bool{}
	for _, p := range ready.Probes {
		probes[p.Name] = true
	}
	if !ready.Ready || !probes["listener"] || !probes["fanout"] {
		t.Errorf("/readyz = %+v, want ready with listener and fanout probes", ready)
	}
	if index := get(obs.DebugIndexPath); !strings.Contains(index, obs.MetricsPath) || !strings.Contains(index, tap.TapzPath) {
		t.Errorf("/debug/ index must list %s and %s:\n%s", obs.MetricsPath, tap.TapzPath, index)
	}

	eventually(t, "a data frame in the morphcap download", func() bool {
		c, err := tap.ReadCapture(bytes.NewReader([]byte(get(tap.TapzPath + "?format=morphcap"))))
		if err != nil {
			t.Fatalf("morphcap download does not decode: %v", err)
		}
		for _, conn := range c.Conns {
			for _, r := range conn.Records {
				if r.Kind == wire.KindData {
					return true
				}
			}
		}
		return false
	})
}

// eventually polls cond for up to 5 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
