// Package pipetrace implements engine.Probe writers (the pipeline-event
// observer interface of the engine layer).
// The primary implementation emits the Kanata log format consumed by the Konata
// pipeline visualizer (https://github.com/shioyadan/Konata), written by
// the paper's first author — load the output in Konata to watch
// instructions execute in the IXU and skip the issue queue.
package pipetrace

import (
	"bufio"
	"fmt"
	"io"
)

// Kanata writes Kanata 0004 logs.
//
// Format summary (one event per line, tab-separated):
//
//	Kanata 0004          header
//	C=  <cycle>          absolute cycle of the next events
//	C   <delta>          advance the clock
//	I   <id> <seq> <tid> new instruction instance
//	L   <id> 0 <text>    label (disassembly)
//	S   <id> 0 <stage>   stage begin
//	E   <id> 0 <stage>   stage end
//	R   <id> <seq> <t>   retire (t: 0 commit, 1 flush)
type Kanata struct {
	w       *bufio.Writer
	started bool
	cycle   int64
	// open stage per live instance, auto-closed when the next begins.
	open map[uint64]string
	err  error
}

// NewKanata wraps w. Call Close when the run finishes.
func NewKanata(w io.Writer) *Kanata {
	return &Kanata{w: bufio.NewWriter(w), open: make(map[uint64]string)}
}

func (k *Kanata) printf(format string, args ...any) {
	if k.err != nil {
		return
	}
	_, k.err = fmt.Fprintf(k.w, format, args...)
}

func (k *Kanata) sync(cycle int64) {
	if !k.started {
		k.printf("Kanata\t0004\n")
		k.printf("C=\t%d\n", cycle)
		k.cycle = cycle
		k.started = true
		return
	}
	if d := cycle - k.cycle; d > 0 {
		k.printf("C\t%d\n", d)
		k.cycle = cycle
	}
}

// Start implements engine.Probe.
func (k *Kanata) Start(cycle int64, id, seq uint64, pc uint64, disasm string) {
	k.sync(cycle)
	k.printf("I\t%d\t%d\t0\n", id, seq)
	k.printf("L\t%d\t0\t%x: %s\n", id, pc, disasm)
}

// Stage implements engine.Probe.
func (k *Kanata) Stage(cycle int64, id uint64, stage string) {
	k.sync(cycle)
	if prev, ok := k.open[id]; ok {
		k.printf("E\t%d\t0\t%s\n", id, prev)
	}
	k.printf("S\t%d\t0\t%s\n", id, stage)
	k.open[id] = stage
}

// Retire implements engine.Probe.
func (k *Kanata) Retire(cycle int64, id uint64, flushed bool) {
	k.sync(cycle)
	if prev, ok := k.open[id]; ok {
		k.printf("E\t%d\t0\t%s\n", id, prev)
		delete(k.open, id)
	}
	t := 0
	if flushed {
		t = 1
	}
	k.printf("R\t%d\t%d\t%d\n", id, id, t)
}

// Close flushes the log.
func (k *Kanata) Close() error {
	if err := k.w.Flush(); err != nil && k.err == nil {
		k.err = err
	}
	return k.err
}

// Err returns the first write error, if any.
func (k *Kanata) Err() error { return k.err }
