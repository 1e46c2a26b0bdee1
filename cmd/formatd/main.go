// Command formatd is the format-registry daemon: the reproduction of PBIO's
// third-party format server (PAPER §2). It stores format descriptions and
// their transformation meta-data keyed by fingerprint and serves them over
// the wire framing's registry control frames, so peers can exchange nothing
// but 8-byte fingerprints in-band and still resolve full evolution
// meta-data on demand.
//
//	formatd -addr :7500 -debug :7501 -snapshot /var/lib/formatd/table.spool
//
// The debug listener (obs.Serve) carries the base every debug listener does
// — a /debug/ index of the whole surface, /debug/morphz and /metrics (the
// daemon's own obs instruments), /healthz + /readyz (liveness and probed
// readiness: RPC listener accepting, snapshot spool writable) and
// /debug/pprof/ — plus the daemon's pages: /debug/registryz (the live
// table, the event seqno, and every live watch subscription) and
// /debug/tapz (the wire flight recorder). With -snapshot, the table is
// persisted through the self-describing spool framing and reloaded on
// restart, so a bounce loses nothing.
//
// The daemon advertises the watch capability in its hello: subscribed
// clients receive every table mutation as a pushed invalidation event and
// resume across reconnects by replaying their last-applied event seqno.
// Clients that predate the watch protocol are unaffected — they never say
// hello and keep resolving poll-on-miss.
//
// With -peers the table is replicated across a peer set:
//
//	formatd -addr host0:7500 -peers host0:7500,host1:7500,host2:7500 \
//	        -self 0 -snapshot /var/lib/formatd/table.spool
//
// Every peer runs the same command with its own -self index. The peers
// elect a primary (lowest reachable index; an existing primary always
// wins), standbys replicate its table through the watch stream and forward
// writes to it, and clients given the full peer list
// (registry.NewClusterClient) read from the first peer listed and fail over
// to the others on its death. Without -peers the daemon is a peer set of one: the primary
// from the start. The "cluster" section of /debug/registryz carries the
// role, the live peer table, and the replication lag.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/tap"
)

// daemonConfig collects everything run needs: flag values in main, literal
// fields in tests that drive run directly.
type daemonConfig struct {
	addr      string
	debug     string
	snapshot  string
	tapArmed  bool
	peers     []string // empty = standalone
	self      int
	heartbeat time.Duration
}

func main() {
	var (
		addr      = flag.String("addr", ":7500", "registry RPC listen address")
		debug     = flag.String("debug", "", "debug HTTP listen address (empty = disabled)")
		snapshot  = flag.String("snapshot", "", "table snapshot path (empty = in-memory only)")
		tapArmed  = flag.Bool("tap", false, "arm the wire tap at startup (else arm via /debug/tapz?arm=on)")
		peers     = flag.String("peers", "", "comma-separated cluster peer addresses (empty = standalone)")
		self      = flag.Int("self", 0, "this daemon's index in -peers")
		heartbeat = flag.Duration("hb", registry.DefaultHeartbeat, "cluster heartbeat interval")
	)
	flag.Parse()
	log.SetFlags(log.Lmicroseconds)

	cfg := daemonConfig{
		addr: *addr, debug: *debug, snapshot: *snapshot, tapArmed: *tapArmed,
		self: *self, heartbeat: *heartbeat,
	}
	if *peers != "" {
		cfg.peers = strings.Split(*peers, ",")
	}
	if err := run(cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "formatd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until SIGINT/SIGTERM (or ready is closed
// by a test harness driving run directly; ready, when non-nil, receives the
// bound RPC address once listening).
func run(cfg daemonConfig, ready chan<- string) error {
	// The handler goes in before anything announces the daemon (log lines,
	// ready): a supervisor that signals the moment it sees either must get a
	// clean shutdown, not the default action.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	reg := obs.NewRegistry("formatd")
	// The wire tap always exists (its unarmed cost is one interface call per
	// frame) so an operator can arm capture at runtime through /debug/tapz
	// without a restart; -tap arms it from the first frame.
	wtap := tap.New(tap.Config{Name: "formatd", Armed: cfg.tapArmed, Obs: reg})
	srv, err := registry.NewServer(
		registry.WithServerObs(reg),
		registry.WithSnapshotPath(cfg.snapshot),
		registry.WithServerTap(wtap),
		registry.WithPeers(cfg.peers, cfg.self, cfg.heartbeat),
	)
	if err != nil {
		return err
	}
	defer srv.Close()
	if cfg.snapshot != "" {
		log.Printf("snapshot %s: %d entries loaded", cfg.snapshot, srv.Len())
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	log.Printf("format registry listening on %s (watch streams enabled, event seq %d)", ln.Addr(), srv.WatchSeq())

	if cfg.debug != "" {
		// Readiness probes: the RPC listener must be accepting (verified
		// with a bounded self-dial) and, when persistence is on, the last
		// snapshot write must have succeeded.
		health := obs.NewHealth()
		rpcAddr := ln.Addr().String()
		health.Register("listener", func() error {
			c, err := net.DialTimeout("tcp", rpcAddr, time.Second)
			if err != nil {
				return fmt.Errorf("rpc listener not accepting: %w", err)
			}
			_ = c.Close()
			return nil
		})
		if cfg.snapshot != "" {
			health.Register("spool", srv.SpoolHealthy)
		}
		dbg, err := obs.Serve(cfg.debug, reg, health,
			obs.Mount{Path: registry.RegistryzPath, Handler: srv.Handler()},
			obs.Mount{Path: tap.TapzPath, Handler: tap.Handler(wtap)},
		)
		if err != nil {
			return err
		}
		defer dbg.Close()
		log.Printf("debug endpoints on http://%s%s", dbg.Addr(), registry.RegistryzPath)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case sig := <-sigc:
		log.Printf("%s: shutting down (%d entries held)", sig, srv.Len())
		return nil
	case err := <-errc:
		return err
	}
}
