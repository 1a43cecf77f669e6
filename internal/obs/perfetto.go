// Chrome trace-event JSON export (the format Perfetto's ui.perfetto.dev
// loads): one process per GPU device with a thread track per hardware engine
// plus a switch track, and one "requests" process with a thread track per
// request. Complete ("X") slices carry op/span/stage intervals; instant
// ("i") events mark token completions; metadata ("M") events name the
// tracks.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"aegaeon/internal/sim"
)

// perfetto track layout constants.
const (
	pidRequests  = 2   // the shared "requests" process
	pidFaults    = 3   // the shared "faults" process (failure/recovery/retry)
	pidDeviceLow = 100 // device i gets pid pidDeviceLow+i

	tidSwitch = 10 // switch track inside a device process; engines use 1+EngineKind
)

// traceEvent is one Chrome trace-event record. Fields are pruned by
// omitempty so metadata and instant events stay small.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func usec(t sim.Time) float64 { return float64(t) / float64(time.Microsecond) }

func durUsec(start, end sim.Time) float64 {
	d := end - start
	if d < 0 {
		d = 0
	}
	return float64(d) / float64(time.Microsecond)
}

func metaEvent(pid, tid int, kind, name string) traceEvent {
	return traceEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name}}
}

// RequestInstant is an extra instant event drawn on a request's thread track
// at export time. Decision-provenance annotations arrive through this type so
// obs never imports the decision package; instants for requests the collector
// does not know are silently dropped.
type RequestInstant struct {
	Request string
	Name    string
	At      sim.Time
	Args    map[string]any
}

// WritePerfetto exports the collector's timelines as Chrome trace-event
// JSON. The output loads directly in ui.perfetto.dev.
func (c *Collector) WritePerfetto(w io.Writer) error {
	return c.WritePerfettoAnnotated(w, nil)
}

// WritePerfettoAnnotated is WritePerfetto plus caller-supplied instant events
// on request tracks (decision provenance annotations).
func (c *Collector) WritePerfettoAnnotated(w io.Writer, annotations []RequestInstant) error {
	if c == nil {
		return fmt.Errorf("obs: nil collector has nothing to export")
	}
	var events []traceEvent

	// Device tracks: one process per device, one thread per engine.
	timelines := c.DeviceTimelines()
	devPid := map[string]int{}
	for _, tl := range timelines {
		pid, ok := devPid[tl.Device]
		if !ok {
			pid = pidDeviceLow + len(devPid)
			devPid[tl.Device] = pid
			events = append(events,
				metaEvent(pid, 0, "process_name", "gpu "+tl.Device),
				metaEvent(pid, tidSwitch, "thread_name", "switches"),
			)
		}
		tid := 1 + int(tl.Engine)
		events = append(events, metaEvent(pid, tid, "thread_name", tl.Engine.String()))
		for _, op := range tl.Ops {
			name := op.Info.Tag
			if name == "" {
				name = "op"
			}
			ev := traceEvent{
				Name: name, Ph: "X", Cat: "gpu",
				Ts: usec(op.Start), Dur: durUsec(op.Start, op.End),
				Pid: pid, Tid: tid,
			}
			if op.Info.Model != "" || op.Info.Request != "" {
				ev.Args = map[string]any{}
				if op.Info.Model != "" {
					ev.Args["model"] = op.Info.Model
				}
				if op.Info.Request != "" {
					ev.Args["request"] = op.Info.Request
				}
			}
			events = append(events, ev)
		}
	}

	// Switch tracks: one slice per switch on the owning device's process,
	// stage slices nested inside (same track, contained intervals).
	switches, _ := c.Switches()
	for _, sw := range switches {
		pid, ok := devPid[sw.Instance]
		if !ok {
			pid = pidDeviceLow + len(devPid)
			devPid[sw.Instance] = pid
			events = append(events,
				metaEvent(pid, 0, "process_name", "gpu "+sw.Instance),
				metaEvent(pid, tidSwitch, "thread_name", "switches"),
			)
		}
		end := sw.End
		if end < sw.Start {
			end = sw.Start // still in flight at export time
		}
		args := map[string]any{
			"from": sw.From, "to": sw.To,
			"reinit_avoided": sw.ReinitAvoided,
			"stall_ms":       float64(sw.Stall) / float64(time.Millisecond),
		}
		if len(sw.Victims) > 0 {
			args["victims"] = sw.Victims
		}
		stages := map[string]float64{}
		for _, st := range sw.Stages {
			stages[st.Name] += durUsec(st.Start, st.End) / 1e3 // ms
		}
		if len(stages) > 0 {
			args["stages_ms"] = stages
		}
		events = append(events, traceEvent{
			Name: "switch " + sw.From + "->" + sw.To, Ph: "X", Cat: "switch",
			Ts: usec(sw.Start), Dur: durUsec(sw.Start, end),
			Pid: pid, Tid: tidSwitch, Args: args,
		})
		for _, st := range sw.Stages {
			events = append(events, traceEvent{
				Name: st.Name, Ph: "X", Cat: "switch-stage",
				Ts: usec(st.Start), Dur: durUsec(st.Start, st.End),
				Pid: pid, Tid: tidSwitch,
			})
		}
	}

	// Request tracks: a shared process with one thread per request.
	reqs := c.Requests(0)
	events = append(events, metaEvent(pidRequests, 0, "process_name", "requests"))
	reqTid := make(map[string]int, len(reqs))
	for i, rt := range reqs {
		tid := i + 1
		reqTid[rt.ID] = tid
		events = append(events, metaEvent(pidRequests, tid, "thread_name",
			rt.ID+" ("+rt.Model+")"))
		for _, sp := range rt.Spans {
			events = append(events, traceEvent{
				Name: sp.Name, Ph: "X", Cat: "request",
				Ts: usec(sp.Start), Dur: durUsec(sp.Start, sp.End),
				Pid: pidRequests, Tid: tid,
				Args: map[string]any{"model": rt.Model},
			})
		}
		for _, tok := range rt.Tokens {
			events = append(events, traceEvent{
				Name: "token", Ph: "i", Cat: "token", S: "t",
				Ts: usec(tok), Pid: pidRequests, Tid: tid,
			})
		}
	}
	for _, an := range annotations {
		tid, ok := reqTid[an.Request]
		if !ok {
			continue
		}
		events = append(events, traceEvent{
			Name: an.Name, Ph: "i", Cat: "decision", S: "t",
			Ts: usec(an.At), Pid: pidRequests, Tid: tid, Args: an.Args,
		})
	}

	// Fault tracks: instant events for failures, recoveries, and retries,
	// pulled from the flat event ring onto a shared "faults" process with one
	// thread per category.
	faultTids := map[Kind]int{
		KindFailure:  1,
		KindRecovery: 2,
		KindRetry:    3,
	}
	faultNames := map[Kind]string{
		KindFailure:  "failures",
		KindRecovery: "recoveries",
		KindRetry:    "retries",
	}
	wroteFaultMeta := map[Kind]bool{}
	for _, ev := range c.Events() {
		tid, ok := faultTids[ev.Kind]
		if !ok {
			continue
		}
		if !wroteFaultMeta[ev.Kind] {
			if len(wroteFaultMeta) == 0 {
				events = append(events, metaEvent(pidFaults, 0, "process_name", "faults"))
			}
			wroteFaultMeta[ev.Kind] = true
			events = append(events, metaEvent(pidFaults, tid, "thread_name", faultNames[ev.Kind]))
		}
		name := ev.Subject
		if name == "" {
			name = ev.Kind.String()
		}
		fe := traceEvent{
			Name: name, Ph: "i", Cat: "fault", S: "g",
			Ts: usec(ev.At), Pid: pidFaults, Tid: tid,
		}
		if ev.Instance != "" || ev.Detail != "" {
			fe.Args = map[string]any{}
			if ev.Instance != "" {
				fe.Args["instance"] = ev.Instance
			}
			if ev.Detail != "" {
				fe.Args["detail"] = ev.Detail
			}
		}
		events = append(events, fe)
	}

	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ValidatePerfetto checks that r holds structurally valid Chrome trace-event
// JSON: it parses, has a non-empty traceEvents array, every event carries a
// known phase with the fields that phase requires, timestamps and durations
// are non-negative, and "X" slices on the same track are either disjoint or
// properly nested (never partially overlapping). This is the schema gate the
// CI smoke job runs on exported traces.
func ValidatePerfetto(r io.Reader) error {
	var f traceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("obs: trace JSON does not parse: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("obs: traceEvents is empty")
	}
	type track struct{ pid, tid int }
	slices := map[track][][2]float64{}
	for i, ev := range f.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Ts < 0 || ev.Dur < 0 {
				return fmt.Errorf("obs: event %d (%q): negative ts/dur", i, ev.Name)
			}
			if ev.Name == "" {
				return fmt.Errorf("obs: event %d: X slice without a name", i)
			}
			k := track{ev.Pid, ev.Tid}
			slices[k] = append(slices[k], [2]float64{ev.Ts, ev.Ts + ev.Dur})
		case "i", "I":
			if ev.Ts < 0 {
				return fmt.Errorf("obs: event %d (%q): negative ts", i, ev.Name)
			}
		case "M":
			if ev.Args == nil || ev.Args["name"] == nil {
				return fmt.Errorf("obs: event %d: metadata without args.name", i)
			}
		case "B", "E", "b", "e", "n", "C":
			if ev.Ts < 0 {
				return fmt.Errorf("obs: event %d (%q): negative ts", i, ev.Name)
			}
		default:
			return fmt.Errorf("obs: event %d (%q): unknown phase %q", i, ev.Name, ev.Ph)
		}
	}
	// Slices whose boundaries touch in nanoseconds can diverge by an ulp
	// after the ns→µs float conversion (ts+dur vs the next slice's ts), so
	// the containment check tolerates a sub-nanosecond epsilon.
	const eps = 1e-6 // µs
	for k, ivs := range slices {
		sort.Slice(ivs, func(a, b int) bool {
			if ivs[a][0] != ivs[b][0] {
				return ivs[a][0] < ivs[b][0]
			}
			return ivs[a][1] > ivs[b][1] // outer slice first at equal start
		})
		// A stack check: each slice must nest inside or start after the
		// slices currently open on the track.
		var stack [][2]float64
		for _, iv := range ivs {
			for len(stack) > 0 && stack[len(stack)-1][1] <= iv[0]+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && iv[1] > stack[len(stack)-1][1]+eps {
				return fmt.Errorf("obs: track pid=%d tid=%d: slice [%.3f,%.3f] partially overlaps [%.3f,%.3f]",
					k.pid, k.tid, iv[0], iv[1], stack[len(stack)-1][0], stack[len(stack)-1][1])
			}
			stack = append(stack, iv)
		}
	}
	return nil
}
