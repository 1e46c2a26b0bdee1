// Command echodemo runs the paper's §4.1 scenario as separate processes: an
// ECho v2.0 event domain, a new-version publisher, and subscribers of both
// protocol generations. Run each role in its own terminal (or use -role all
// for a single-process demonstration):
//
//	echodemo -role server  -addr :7400 [-debug :7401]
//	echodemo -role oldsink -addr localhost:7400     (v1.0-only client)
//	echodemo -role newsink -addr localhost:7400
//	echodemo -role publish -addr localhost:7400 -n 5
//	echodemo -role all
//
// The old sink never learns about protocol v2.0; the v2.0 response and
// event stream reach it through message morphing.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/tap"
	"repro/internal/trace"
)

// Event payload formats: v2 adds a "volume" field and switches price to
// dollars; the transform keeps v1 sinks working.
var (
	quoteV1 = pbio.MustFormat("Quote", []pbio.Field{
		{Name: "symbol", Kind: pbio.String},
		{Name: "cents", Kind: pbio.Integer},
	})
	quoteV2 = pbio.MustFormat("Quote", []pbio.Field{
		{Name: "symbol", Kind: pbio.String},
		{Name: "dollars", Kind: pbio.Float},
		{Name: "volume", Kind: pbio.Integer},
	})
)

const quoteXform = `old.symbol = new.symbol; old.cents = new.dollars * 100.0;`

func main() {
	var (
		role    = flag.String("role", "all", "server, publish, oldsink, newsink, or all")
		addr    = flag.String("addr", "localhost:7400", "event domain address")
		channel = flag.String("channel", "quotes", "event channel to join")
		n       = flag.Int("n", 3, "events to publish (publish role)")
		debug   = flag.String("debug", "", "debug HTTP listen address for the server role (empty = disabled)")
	)
	flag.Parse()
	log.SetFlags(log.Lmicroseconds)

	var err error
	switch *role {
	case "server":
		err = runServer(*addr, *debug)
	case "publish":
		err = runPublisher(*addr, *channel, *n)
	case "oldsink":
		err = runSink(*addr, *channel, true)
	case "newsink":
		err = runSink(*addr, *channel, false)
	case "all":
		err = runAll(*channel, *n)
	default:
		err = fmt.Errorf("unknown role %q", *role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "echodemo:", err)
		os.Exit(1)
	}
}

// runServer hosts the event domain. With -debug, the process's debug
// listener (obs.Serve: /debug/, /debug/morphz, /metrics, /healthz, /readyz,
// /debug/pprof/) also carries the event domain's /debug/tracez and
// /debug/tapz pages, and its address is logged after the event-domain
// address so scripts can scrape both (TestRunServerDebugPlane parses the
// "listening on" and "debug endpoints on" lines). The wire tap starts
// disarmed; arm it with /debug/tapz?arm=on.
func runServer(addr, debug string) error {
	var (
		reg  *obs.Registry
		tr   *trace.Tracer
		wtap *tap.Tap
	)
	if debug != "" {
		reg = obs.NewRegistry("echodemo")
		tr = trace.New(trace.Config{Capacity: trace.DefaultCapacity})
		// Full payload prefixes: the demo favors replayable captures over
		// ring memory, so anything it records morphtap can replay.
		wtap = tap.New(tap.Config{Name: "echodemo", Obs: reg, Prefix: tap.PrefixMax})
	}
	srv := echo.NewServer(echo.WithObs(reg), echo.WithTracer(tr), echo.WithTap(wtap))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("event domain (ECho v2.0) listening on %s", ln.Addr())
	if debug != "" {
		dbg, err := obs.Serve(debug, reg, srv.Health(),
			obs.Mount{Path: trace.TracezPath, Handler: trace.Handler(tr)},
			obs.Mount{Path: tap.TapzPath, Handler: tap.Handler(wtap)},
		)
		if err != nil {
			_ = ln.Close()
			return err
		}
		defer dbg.Close()
		log.Printf("debug endpoints on http://%s%s", dbg.Addr(), obs.DebugIndexPath)
	}
	return srv.Serve(ln)
}

func runPublisher(addr, channel string, n int) error {
	pub, err := echo.Open(addr, channel, echo.Options{Source: true, Contact: "publisher"})
	if err != nil {
		return err
	}
	defer pub.Close()
	log.Printf("joined %q; members: %d", channel, len(pub.Members()))

	// Attach the evolution meta-data once; it travels out-of-band with the
	// format the first time we publish.
	pub.Declare(quoteV2, &core.Xform{From: quoteV2, To: quoteV1, Code: quoteXform})

	for i := 0; i < n; i++ {
		ev := pbio.NewRecord(quoteV2).
			MustSet("symbol", pbio.Str("ACME")).
			MustSet("dollars", pbio.Float64(12.5+float64(i))).
			MustSet("volume", pbio.Int(int64(100*(i+1))))
		if err := pub.Publish(ev); err != nil {
			return err
		}
		log.Printf("published v2.0 event %d: %v", i, ev)
		time.Sleep(100 * time.Millisecond)
	}
	return nil
}

func runSink(addr, channel string, old bool) error {
	opts := echo.Options{Sink: true}
	version := "v2.0"
	if old {
		opts.V1Compat = true
		opts.Contact = "old-sink"
		version = "v1.0 (morphing)"
	} else {
		opts.Contact = "new-sink"
	}
	sub, err := echo.Open(addr, channel, opts)
	if err != nil {
		return err
	}
	defer sub.Close()
	log.Printf("%s sink joined %q; membership has %d entries", version, channel, len(sub.Members()))

	if old {
		err = sub.Handle(quoteV1, func(r *pbio.Record) error {
			sym, _ := r.Get("symbol")
			cents, _ := r.Get("cents")
			log.Printf("old sink got v1.0 quote: %s at %d cents (morphed from v2.0)", sym.Strval(), cents.Int64())
			return nil
		})
	} else {
		err = sub.Handle(quoteV2, func(r *pbio.Record) error {
			sym, _ := r.Get("symbol")
			d, _ := r.Get("dollars")
			vol, _ := r.Get("volume")
			log.Printf("new sink got v2.0 quote: %s at $%.2f, volume %d", sym.Strval(), d.Float64(), vol.Int64())
			return nil
		})
	}
	if err != nil {
		return err
	}
	return sub.Run()
}

// runAll performs the whole scenario in one process, for a quick look.
func runAll(channel string, n int) error {
	srv := echo.NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() {
		if err := srv.Serve(ln); err != nil {
			log.Printf("server: %v", err)
		}
	}()
	defer srv.Close()
	addr := ln.Addr().String()
	log.Printf("event domain on %s", addr)

	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := runSinkN(addr, channel, true, n); err != nil {
			log.Printf("old sink: %v", err)
		}
	}()
	newDone := make(chan struct{})
	go func() {
		defer close(newDone)
		if err := runSinkN(addr, channel, false, n); err != nil {
			log.Printf("new sink: %v", err)
		}
	}()
	time.Sleep(200 * time.Millisecond)

	if err := runPublisher(addr, channel, n); err != nil {
		return err
	}
	<-done
	<-newDone
	log.Printf("scenario complete: one publisher, two protocol generations, zero negotiation")
	return nil
}

// runSinkN is runSink that exits after n events.
func runSinkN(addr, channel string, old bool, n int) error {
	opts := echo.Options{Sink: true}
	if old {
		opts.V1Compat = true
		opts.Contact = "old-sink"
	} else {
		opts.Contact = "new-sink"
	}
	sub, err := echo.Open(addr, channel, opts)
	if err != nil {
		return err
	}
	got := make(chan struct{}, n)
	format, report := quoteV2, "new sink got v2.0 quote %v"
	if old {
		format, report = quoteV1, "old sink got v1.0 quote %v (morphed)"
	}
	if err := sub.Handle(format, func(r *pbio.Record) error {
		log.Printf(report, r)
		got <- struct{}{}
		return nil
	}); err != nil {
		return err
	}
	go func() {
		for i := 0; i < n; i++ {
			<-got
		}
		_ = sub.Close()
	}()
	return sub.Run()
}
