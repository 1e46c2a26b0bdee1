package repro_test

import (
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/ecode"
	"repro/internal/fanout"
	"repro/internal/fleetgen"
	"repro/internal/obs"
	"repro/internal/pbio"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The frozen surface: every library name the nested benchmark/ module (its
// own go.mod, invisible to `go test ./...` here) compiles against, pinned by
// type so an accidental signature change fails tier-1 and not only the
// benchmark build. Nothing runs; the assertions are the declarations.
// Changing one of these means changing benchmark/ in the same commit, which
// BENCHMARK.json's rules reserve for a benchmark-only PR.
var (
	// wire
	_ func(net.Conn, ...wire.Option) *wire.Conn           = wire.NewConn
	_ func(*wire.Conn, *pbio.Format, []byte) error        = (*wire.Conn).WriteEncoded
	_ func(*wire.Conn, []wire.BatchFrame) error           = (*wire.Conn).WriteEncodedBatchCtx
	_ func(*wire.Conn) ([]byte, *pbio.Format, error)      = (*wire.Conn).ReadEncoded
	_ func(*wire.Conn, *pbio.Format, ...*core.Xform)      = (*wire.Conn).Declare
	_ func(*wire.Conn) wire.Stats                         = (*wire.Conn).Stats
	_ func(*core.Morpher) wire.Option                     = wire.WithMorpher
	_ func(func(*pbio.Format, []*core.Xform)) wire.Option = wire.WithFormatHook
	_                                                     = wire.BatchFrame{Data: []byte(nil), Format: (*pbio.Format)(nil), Ctx: trace.Context{}}
	_ uint64                                              = wire.Stats{}.FormatFramesRecv

	// core
	_    func(core.Thresholds, ...core.MorpherOption) *core.Morpher   = core.NewMorpher
	_    func(*pbio.Format, *pbio.Format) *core.Converter             = core.NewConverter
	_    func(*core.Converter, *pbio.Record) (*pbio.Record, error)    = (*core.Converter).Convert
	_    func(*core.Morpher, []byte, *pbio.Format) error              = (*core.Morpher).DeliverEncoded
	_    func(*core.Morpher, *pbio.Format, core.Handler) error        = (*core.Morpher).RegisterFormat
	_    func(*core.Morpher, *pbio.Format, core.EncodedHandler) error = (*core.Morpher).RegisterFormatEncoded
	_    func(*core.Morpher, *core.Xform) error                       = (*core.Morpher).AddTransform
	_    func(*core.Morpher, *pbio.Format) (core.Explanation, error)  = (*core.Morpher).Explain
	_    func(*core.Morpher) core.Stats                               = (*core.Morpher).Stats
	_    core.Thresholds                                              = core.DefaultThresholds
	_    core.Handler                                                 = func(*pbio.Record) error { return nil }
	_    core.EncodedHandler                                          = func([]byte, *pbio.Format) error { return nil }
	_                                                                 = core.Xform{From: (*pbio.Format)(nil), To: (*pbio.Format)(nil), Code: ""}
	_                                                                 = core.Stats{Delivered: 0, CacheHits: 0, Compiled: 0, Transformed: 0, Converted: 0, Rejected: 0, SpliceHits: 0, SpliceMisses: 0}
	_                                                                 = core.Explanation{Rejected: false, Target: (*pbio.Format)(nil), ChainLen: 0, Perfect: false, Defaulted: []string(nil), Dropped: []string(nil)}
	_, _ string                                                       = core.SrcParam, core.DstParam

	// registry
	_ func(string, ...registry.ClientOption) *registry.Client             = registry.NewClient
	_ func(...registry.ServerOption) (*registry.Server, error)            = registry.NewServer
	_ func(*registry.Client, *pbio.Format, ...*core.Xform) error          = (*registry.Client).Register
	_ func(*registry.Client, uint64) (*pbio.Format, []*core.Xform, error) = (*registry.Client).ResolveFormat
	_ func(*registry.Client) error                                        = (*registry.Client).Close
	_ func() registry.ClientOption                                        = registry.WithWatchDisabled
	_ func(*obs.Registry) registry.ServerOption                           = registry.WithServerObs
	_ func(*registry.Server, net.Listener) error                          = (*registry.Server).Serve
	_ func(*registry.Server) error                                        = (*registry.Server).Close
	_ wire.FormatResolver                                                 = (*registry.Client)(nil)

	// echo
	_    func(string, string, echo.Options) (*echo.Subscriber, error) = echo.Open
	_    func(...echo.ServerOption) *echo.Server                      = echo.NewServer
	_    func(*echo.Server, net.Listener) error                       = (*echo.Server).Serve
	_    func(*echo.Server) net.Addr                                  = (*echo.Server).Addr
	_    func(*echo.Server) error                                     = (*echo.Server).Close
	_    func(*echo.Subscriber) *core.Morpher                         = (*echo.Subscriber).Morpher
	_    func(*echo.Subscriber, *pbio.Format, core.Handler) error     = (*echo.Subscriber).Handle
	_    func(*echo.Subscriber, *pbio.Format, ...*core.Xform)         = (*echo.Subscriber).Declare
	_    func(*echo.Subscriber, *pbio.Record) error                   = (*echo.Subscriber).Publish
	_    func(*echo.Subscriber) wire.Stats                            = (*echo.Subscriber).WireStats
	_    func(*echo.Subscriber) error                                 = (*echo.Subscriber).Run
	_    func(*echo.Subscriber) error                                 = (*echo.Subscriber).Close
	_    func(*obs.Registry) echo.ServerOption                        = echo.WithObs
	_    func(*registry.Client) echo.ServerOption                     = echo.WithRegistry
	_    func(int, fanout.Policy) echo.ServerOption                   = echo.WithFanoutQueue
	_                                                                 = echo.Options{Source: false, Sink: false, Thresholds: (*core.Thresholds)(nil), Registry: (*registry.Client)(nil)}
	_, _ *pbio.Format                                                 = echo.MemberEntryFormat, echo.MemberV2Format
	_    string                                                       = echo.Figure5Transform

	// fanout
	_ func(fanout.Config) *fanout.Queue                                  = fanout.NewQueue
	_ func([]byte, *pbio.Format, trace.Context, time.Time) *fanout.Frame = fanout.NewFrame
	_ func(*fanout.Frame)                                                = (*fanout.Frame).Retain
	_ func(*fanout.Frame)                                                = (*fanout.Frame).Release
	_ func(*fanout.Queue, *fanout.Frame) bool                            = (*fanout.Queue).Enqueue
	_ func(*fanout.Queue) int                                            = (*fanout.Queue).DrainNow
	_ func(*fanout.Queue)                                                = (*fanout.Queue).Close
	_ func() int64                                                       = fanout.LiveFrames
	_ fanout.Policy                                                      = fanout.DropNewest
	_                                                                    = fanout.Frame{Data: []byte(nil), Format: (*pbio.Format)(nil), Ctx: trace.Context{}}
	_                                                                    = fanout.Config{Cap: 0, Manual: false, Flush: func([]*fanout.Frame) error { return nil }}

	// ecode, fleetgen, obs
	_ func(string, ...ecode.Param) (*ecode.Program, error)                  = ecode.Compile
	_ func(*ecode.Program, ...*pbio.Record) (pbio.Value, error)             = (*ecode.Program).Run
	_                                                                       = ecode.Param{Name: "", Format: (*pbio.Format)(nil)}
	_ func(string, uint64, int64, int) (*fleetgen.Lineage, error)           = fleetgen.NewLineage
	_ func(*fleetgen.Generation, *fleetgen.Generation) (*core.Xform, error) = fleetgen.XformBetween
	_ func(uint64, uint64) uint64                                           = fleetgen.Check
	_ func(string) *obs.Registry                                            = obs.NewRegistry
	_ func(string, ...string) string                                        = obs.LabeledName

	// pbio
	_ func(string, []pbio.Field) *pbio.Format          = pbio.MustFormat
	_ func(*pbio.Format) *pbio.Record                  = pbio.NewRecord
	_ func(*pbio.Record) []byte                        = pbio.EncodeRecord
	_ func(*pbio.Format) []byte                        = pbio.EncodeFormat
	_ func([]byte, *pbio.Format) (*pbio.Record, error) = pbio.DecodeRecord
	_ int                                              = pbio.EnvelopeSize
	_                                                  = pbio.Field{Name: "", Kind: pbio.Integer, Size: 0}
	_                                                  = [...]pbio.Kind{pbio.Integer, pbio.Unsigned, pbio.Float, pbio.Boolean, pbio.String, pbio.List, pbio.Complex}
	_ func(int64) pbio.Value                           = pbio.Int
	_ func(uint64) pbio.Value                          = pbio.Uint
	_ func(float64) pbio.Value                         = pbio.Float64
	_ func(bool) pbio.Value                            = pbio.Bool
	_ func(string) pbio.Value                          = pbio.Str
)
