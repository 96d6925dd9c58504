package fxa

// End-to-end golden tests: real algorithms written in FXK, compiled with
// the bundled compiler, validated functionally on the emulator, then run
// through every timing model with the cross-model invariants checked. This
// exercises the whole stack the way a downstream user would: language →
// assembler → emulator → timing models → statistics.

import (
	"context"
	"testing"

	"fxa/internal/emu"
	"fxa/internal/minic"
)

type goldenProgram struct {
	name   string
	src    string
	verify func(t *testing.T, m *emu.Machine)
}

var goldenPrograms = []goldenProgram{
	{
		name: "fibonacci",
		// result (r8) = fib(40) mod 2^64; a/b are r9/r10.
		src: `
var result = 0;
var a = 0;
var b = 1;
for i = 0 .. 40 {
    result = a + b;
    a = b;
    b = result;
}
`,
		verify: func(t *testing.T, m *emu.Machine) {
			// fib sequence: after 40 steps b = fib(41), result = fib(41)
			const fib41 = 165580141
			if got := int64(m.R[8]); got != fib41 {
				t.Errorf("fib result = %d, want %d", got, fib41)
			}
		},
	},
	{
		name: "bubble-sort",
		// sorted flag (r8) = 1, checksum (r9) preserved.
		src: `
var sorted = 0;
var checksum = 0;
var a[64];
var seed = 42;
for i = 0 .. 64 {
    seed = (seed * 1103 + 12289) % 65536;
    a[i] = seed;
    checksum = checksum + seed;
}
for pass = 0 .. 64 {
    for j = 0 .. 63 {
        if a[j] > a[j+1] {
            var tmp; tmp = a[j];
            a[j] = a[j+1];
            a[j+1] = tmp;
        }
    }
}
sorted = 1;
var prev = -1;
var check2 = 0;
for k = 0 .. 64 {
    if a[k] < prev { sorted = 0; }
    prev = a[k];
    check2 = check2 + a[k];
}
if check2 != checksum { sorted = 0; }
`,
		verify: func(t *testing.T, m *emu.Machine) {
			if m.R[8] != 1 {
				t.Error("array not sorted or checksum mismatch")
			}
		},
	},
	{
		name: "matmul",
		// 8x8 integer matrix multiply; trace (r8) of C.
		src: `
var trace = 0;
var a[64];
var b[64];
var c[64];
for i = 0 .. 64 {
    a[i] = i % 7 + 1;
    b[i] = i % 5 + 1;
}
for i = 0 .. 8 {
    for j = 0 .. 8 {
        var acc = 0;
        for k = 0 .. 8 {
            acc = acc + a[i*8+k] * b[k*8+j];
        }
        c[i*8+j] = acc;
    }
}
for d = 0 .. 8 {
    trace = trace + c[d*8+d];
}
`,
		verify: func(t *testing.T, m *emu.Machine) {
			// Reference computed in Go below.
			var a, b [64]int64
			for i := int64(0); i < 64; i++ {
				a[i] = i%7 + 1
				b[i] = i%5 + 1
			}
			var trace int64
			for d := 0; d < 8; d++ {
				var acc int64
				for k := 0; k < 8; k++ {
					acc += a[d*8+k] * b[k*8+d]
				}
				trace += acc
			}
			if got := int64(m.R[8]); got != trace {
				t.Errorf("matmul trace = %d, want %d", got, trace)
			}
		},
	},
	{
		name: "newton-sqrt",
		// Newton iteration for sqrt(2) in floating point; result in f8.
		src: `
fvar x = 1.0;
fvar target = 2.0;
for it = 0 .. 20 {
    x = (x + target / x) / 2.0;
}
var ok = 0;
fvar lo = 1.41421;
fvar hi = 1.41422;
if (x > lo) && (x < hi) { ok = 1; }
`,
		verify: func(t *testing.T, m *emu.Machine) {
			if m.R[8] != 1 { // "ok" is the first integer scalar
				t.Errorf("newton sqrt out of range: f8=%g", m.F[8])
			}
		},
	},
	{
		name: "sieve",
		// Count of primes below 1000 = 168, in r8.
		src: `
var count = 0;
var composite[1000];
for i = 2 .. 1000 {
    if composite[i] == 0 {
        count = count + 1;
        var j; j = i * i;
        while j < 1000 {
            composite[j] = 1;
            j = j + i;
        }
    }
}
`,
		verify: func(t *testing.T, m *emu.Machine) {
			if m.R[8] != 168 {
				t.Errorf("primes below 1000 = %d, want 168", m.R[8])
			}
		},
	},
	{
		name: "collatz",
		// Longest Collatz chain start below 300 is 231 (127 steps).
		src: `
var beststart = 0;
var bestlen = 0;
for n = 1 .. 300 {
    var x; x = n;
    var steps = 0;
    while x != 1 {
        if (x & 1) == 1 {
            x = 3 * x + 1;
        } else {
            x = x / 2;
        }
        steps = steps + 1;
    }
    if steps > bestlen {
        bestlen = steps;
        beststart = n;
    }
}
`,
		verify: func(t *testing.T, m *emu.Machine) {
			// Reference computed in Go.
			bestStart, bestLen := 0, 0
			for n := 1; n < 300; n++ {
				x, steps := n, 0
				for x != 1 {
					if x%2 == 1 {
						x = 3*x + 1
					} else {
						x /= 2
					}
					steps++
				}
				if steps > bestLen {
					bestLen, bestStart = steps, n
				}
			}
			if int(m.R[8]) != bestStart || int(m.R[9]) != bestLen {
				t.Errorf("collatz best = %d (%d steps), want %d (%d)", m.R[8], m.R[9], bestStart, bestLen)
			}
		},
	},
	{
		name: "fxk-functions",
		// Function composition: iterative power via a helper.
		src: `
var out = 0;

func mulmod(a, b) {
    var p; p = (a * b) % 1000003;
    return p;
}

func powmod(base, e) {
    var acc = 1;
    var i = 0;
    while i < e {
        acc = mulmod(acc, base);
        i = i + 1;
    }
    return acc;
}

out = powmod(7, 30);
`,
		verify: func(t *testing.T, m *emu.Machine) {
			// 7^30 mod 1000003 computed in Go.
			acc := int64(1)
			for i := 0; i < 30; i++ {
				acc = acc * 7 % 1000003
			}
			if got := int64(m.R[8]); got != acc {
				t.Errorf("powmod = %d, want %d", got, acc)
			}
		},
	},
	{
		name: "gcd-euclid",
		// gcd(1071, 462) = 21 in r8.
		src: `
var g = 1071;
var bb = 462;
while bb != 0 {
    var tmp; tmp = g % bb;
    g = bb;
    bb = tmp;
}
`,
		verify: func(t *testing.T, m *emu.Machine) {
			if m.R[8] != 21 {
				t.Errorf("gcd = %d, want 21", m.R[8])
			}
		},
	},
}

func TestGoldenProgramsAllModels(t *testing.T) {
	for _, gp := range goldenPrograms {
		gp := gp
		t.Run(gp.name, func(t *testing.T) {
			prog, err := minic.Compile(gp.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			// Functional verification on the emulator.
			golden := emu.New(prog)
			want, err := golden.Run(100_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !golden.Halt {
				t.Fatal("did not halt")
			}
			gp.verify(t, golden)

			// Every timing model commits exactly the architectural
			// stream.
			for _, m := range Models() {
				res, err := Run(context.Background(), Spec{Model: m, Trace: emu.NewStream(emu.New(prog), 0)})
				if err != nil {
					t.Fatalf("%s: %v", m.Name, err)
				}
				if res.Counters.Committed != want {
					t.Errorf("%s committed %d, want %d", m.Name, res.Counters.Committed, want)
				}
				if res.Counters.IPC() <= 0 {
					t.Errorf("%s: non-positive IPC", m.Name)
				}
			}
		})
	}
}

// TestGoldenCrossModelOrdering checks the architectural orderings on the
// compiled programs: FX models never fall behind their baselines on these
// INT-dominated kernels, and LITTLE is slowest.
func TestGoldenCrossModelOrdering(t *testing.T) {
	for _, gp := range goldenPrograms {
		prog, err := minic.Compile(gp.src)
		if err != nil {
			t.Fatal(err)
		}
		ipc := map[string]float64{}
		for _, m := range Models() {
			res, err := Run(context.Background(), Spec{Model: m, Trace: emu.NewStream(emu.New(prog), 0)})
			if err != nil {
				t.Fatal(err)
			}
			ipc[m.Name] = res.Counters.IPC()
		}
		if ipc["HALF+FX"] < ipc["HALF"]*0.98 {
			t.Errorf("%s: HALF+FX (%.3f) fell behind HALF (%.3f)", gp.name, ipc["HALF+FX"], ipc["HALF"])
		}
		if ipc["LITTLE"] > ipc["BIG"] {
			t.Errorf("%s: LITTLE (%.3f) beat BIG (%.3f)", gp.name, ipc["LITTLE"], ipc["BIG"])
		}
	}
}

// TestCompiledSuiteIXURateBand cross-checks deviation D1: kernels with
// compiler-like register reuse should show IXU execution rates near the
// paper's compiled-SPEC band (54 %), well below the synthetic proxies.
func TestCompiledSuiteIXURateBand(t *testing.T) {
	logSum, n := 0.0, 0
	for _, c := range CompiledWorkloads() {
		trace, err := c.NewTrace(100_000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), Spec{Model: HalfFX(), Trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		rate := res.Counters.IXURate()
		t.Logf("%-10s IXU rate %.2f IPC %.2f", c.Name, rate, res.Counters.IPC())
		if rate <= 0 {
			t.Errorf("%s: zero IXU rate", c.Name)
			continue
		}
		logSum += ln(rate)
		n++
	}
	mean := exp(logSum / float64(n))
	if mean < 0.35 || mean > 0.75 {
		t.Errorf("compiled-suite IXU rate %.2f outside the plausible band around the paper's 0.54", mean)
	}
}
