package fxa

// Regression test for trace-error surfacing on a caller-built stream. An
// emulator fault mid-run (here: execution reaching an undecodable word
// after the kernel overwrites its own code) ends the trace silently from
// the timing model's point of view — the stream just stops producing
// records and the pipeline drains. A run of a compiled kernel used to
// return the truncated Result as if the kernel had finished; engine.Run
// now fails it, for every caller.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fxa/internal/isa"
)

// undecodableWord returns a 32-bit word isa.Decode rejects.
func undecodableWord(t *testing.T) uint32 {
	t.Helper()
	for w := uint32(0xffffffff); w != 0; w-- {
		if _, err := isa.Decode(w); err != nil {
			return w
		}
	}
	t.Fatal("every 32-bit word decodes; cannot build a faulting kernel")
	return 0
}

func TestRunCompiledSurfacesTraceError(t *testing.T) {
	bad := undecodableWord(t)
	// The compiler places code at 0x1000 and array storage at 0x100000
	// with 8-byte elements, so a[i - 130560] addresses 0x1000 + 8i: the
	// store loop walks up through the program's own instructions. Each
	// store plants the undecodable word in both halves of the 8-byte
	// cell; once the loop body overwrites itself, the next fetch faults
	// decode and the trace ends early with a pending error.
	//
	// The word is assembled from 14-bit pieces because minic literals
	// are limited to the li immediate range.
	clobber := CompiledWorkload{
		Name: "clobber",
		Source: fmt.Sprintf(`
var a[1];
var w = 0;
w = (%d << 14) | %d;
w = (w << 32) | w;
for i = 0 .. 4096 {
    a[i - 130560] = w;
}
`, bad>>14, bad&0x3fff),
	}
	trace, err := clobber.NewTrace(200_000)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), Spec{Model: HalfFX(), Trace: trace})
	if err == nil {
		t.Fatal("Run returned no error for a trace that faulted mid-run")
	}
	if !strings.Contains(err.Error(), "trace") {
		t.Errorf("error %q does not attribute the failure to the trace", err)
	}
}
