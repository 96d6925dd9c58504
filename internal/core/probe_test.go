package core

import (
	"context"
	"testing"

	"fxa/internal/config"
	"fxa/internal/engine"
	"fxa/internal/workload"
)

func TestProbeIXUMem(t *testing.T) {
	w, _ := workload.ByName("hmmer")
	run := func(m config.Model) engine.Result {
		tr, err := w.NewTrace(120_000)
		if err != nil {
			t.Fatal(err)
		}
		co, err := New(m, tr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := co.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	big := run(config.Big())
	fx := run(config.BigFX())
	one := config.BigFX()
	one.IXU.StageFUs = []int{3}
	fx1 := run(one)
	bigRob := config.BigFX()
	bigRob.ROBEntries = 512
	bigRob.IntPRF, bigRob.FPPRF = 512, 512
	bigRob.LQEntries, bigRob.SQEntries = 128, 128
	fxRob := run(bigRob)
	bigRob2 := config.Big()
	bigRob2.ROBEntries = 512
	bigRob2.IntPRF, bigRob2.FPPRF = 512, 512
	bigRob2.LQEntries, bigRob2.SQEntries = 128, 128
	bigR := run(bigRob2)
	t.Logf("BIG %.3f | BIG+FX %.3f | BIG+FX[3] %.3f | BIG+FX rob512 %.3f | BIG rob512 %.3f",
		big.Counters.IPC(), fx.Counters.IPC(), fx1.Counters.IPC(), fxRob.Counters.IPC(), bigR.Counters.IPC())
}
