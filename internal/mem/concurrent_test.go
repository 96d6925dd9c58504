package mem_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"fxa/internal/config"
	_ "fxa/internal/core"
	"fxa/internal/engine"
	"fxa/internal/workload"
)

// TestConcurrentRunsRecycle runs one model on four goroutines at once, as
// sweep workers and a serve process's shards do: every engine.Run takes
// its cache arrays from the pool the others give theirs back to, and
// every trace's memory gives its page chunks to the others' faults. Each
// goroutine runs the four proxies in its own order, and every result must
// equal the serial run's.
func TestConcurrentRunsRecycle(t *testing.T) {
	m := config.HalfFX()
	names := []string{"lbm", "mcf", "gcc", "namd"}
	run := func(name string) (engine.Result, error) {
		w, _ := workload.ByName(name)
		trace, err := w.NewTrace(10_000)
		if err != nil {
			return engine.Result{}, err
		}
		defer trace.M.Mem.Release()
		return engine.Run(context.Background(), m, trace, engine.Options{})
	}
	want := make(map[string]engine.Result)
	for _, name := range names {
		res, err := run(name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = res
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				name := names[(g+i)%len(names)]
				res, err := run(name)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res, want[name]) {
					t.Errorf("goroutine %d: %s on %s differs from the serial run", g, m.Name, name)
				}
			}
		}()
	}
	wg.Wait()
}
