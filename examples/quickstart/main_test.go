package main

import (
	"io"
	"os"
	"testing"
)

// runMain runs main with stdout captured.
func runMain(t *testing.T) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	main()
	w.Close()
	return string(<-out)
}

func TestQuickstartOutput(t *testing.T) {
	const want = `wire message: 29 bytes (native 28 + 8 envelope)
application received: {Symbol:ACME Cents:1250}
application received: {Symbol:ACME Cents:1250}
morpher stats: 2 delivered, 1 compiled (cached after the first), 2 transformed
plan for "Quote": 1 transformation step(s) into "Quote", perfect=true
`
	if got := runMain(t); got != want {
		t.Fatalf("stdout:\n%s\nwant:\n%s", got, want)
	}
}
