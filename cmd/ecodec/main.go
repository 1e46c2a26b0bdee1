// Command ecodec compiles and runs E-Code transformation snippets — the
// developer tool for authoring the conversion code that message morphing
// attaches to evolving formats.
//
// Usage:
//
//	ecodec -e 'return 6 * 7;'          evaluate an expression program
//	ecodec file.ec                     run a program from a file
//	ecodec -check file.ec              compile only (syntax/type check)
//	ecodec -fig5                       run the paper's Figure 5 transform
//	                                   on a sample ChannelOpenResponse
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/echo"
	"repro/internal/ecode"
	"repro/internal/pbio"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ecodec:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expr  = flag.String("e", "", "program text to run (instead of a file)")
		check = flag.Bool("check", false, "compile only; report success or errors")
		fig5  = flag.Bool("fig5", false, "demo: run the paper's Figure 5 transform on sample data")
	)
	flag.Parse()

	if *fig5 {
		return runFigure5()
	}

	src := *expr
	if src == "" {
		if flag.NArg() != 1 {
			return fmt.Errorf("need a source file or -e 'program'")
		}
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		src = string(data)
	}

	prog, err := ecode.Compile(src)
	if err != nil {
		return err
	}
	if *check {
		fmt.Println("ok")
		return nil
	}
	result, err := prog.Run()
	if err != nil {
		return err
	}
	if !result.IsZero() {
		fmt.Println(result)
	}
	return nil
}

func runFigure5() error {
	prog, err := ecode.Compile(echo.Figure5Transform,
		ecode.Param{Name: core.SrcParam, Format: echo.ResponseV2Format},
		ecode.Param{Name: core.DstParam, Format: echo.ResponseV1Format},
	)
	if err != nil {
		return fmt.Errorf("figure 5 failed to compile: %w", err)
	}
	in := echo.ResponseV2Record([]echo.Member{
		{Info: "tcp:host1:4000", ID: 7, IsSource: true},
		{Info: "tcp:host2:4001", ID: 7, IsSink: true},
		{Info: "tcp:host3:4002", ID: 7, IsSource: true, IsSink: true},
	})
	out := pbio.NewRecord(echo.ResponseV1Format)
	if _, err := prog.Run(in, out); err != nil {
		return err
	}
	fmt.Println("input  (ChannelOpenResponse v2.0):")
	fmt.Println(" ", in)
	fmt.Println("output (ChannelOpenResponse v1.0):")
	fmt.Println(" ", out)
	fmt.Printf("\nv2.0 native size: %d bytes; v1.0 native size: %d bytes (the duplication v2.0 removed)\n",
		in.NativeSize(), out.NativeSize())
	fmt.Println("\nstructural changes v1.0 → v2.0:")
	fmt.Print(core.FormatChanges(core.DiffReport(echo.ResponseV1Format, echo.ResponseV2Format)))
	fmt.Printf("Diff(v2,v1)=%d  Diff(v1,v2)=%d  Mr(v2,v1)=%.2f\n",
		core.Diff(echo.ResponseV2Format, echo.ResponseV1Format),
		core.Diff(echo.ResponseV1Format, echo.ResponseV2Format),
		core.MismatchRatio(echo.ResponseV2Format, echo.ResponseV1Format))
	return nil
}
