package core

import "fxa/internal/engine"

// SetProbe attaches a pipeline-event probe (engine.ProbeAttacher) for
// visualization. Must be called before the first Step. The canonical
// implementation is internal/pipetrace, which writes the Kanata log
// format readable by the Konata pipeline viewer (the visualizer ecosystem
// of the paper's own research group).
func (co *Core) SetProbe(p engine.Probe) { co.tracer = p }

func (co *Core) traceStart(u *uop) {
	if co.tracer == nil {
		return
	}
	u.traceID = co.nextTraceID
	co.nextTraceID++
	co.tracer.Start(co.cycle, u.traceID, u.rec.Seq, u.rec.PC, u.rec.Inst.String())
	co.tracer.Stage(co.cycle, u.traceID, "F")
}

func (co *Core) traceStage(u *uop, stage string) {
	if co.tracer == nil {
		return
	}
	co.tracer.Stage(co.cycle, u.traceID, stage)
}

func (co *Core) traceRetire(u *uop, flushed bool) {
	if co.tracer == nil {
		return
	}
	co.tracer.Retire(co.cycle, u.traceID, flushed)
}
