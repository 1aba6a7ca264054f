package exp

import (
	"fmt"
	"strings"
)

// Gantt renders the timeline as ASCII art in the style of the paper's
// Fig. 1b: one lane per host thread, DMA direction, and engine, with
// jobs shown as phase blocks. Width is the chart width in characters.
func (t Timeline) Gantt(threads, engines, width int) string {
	if len(t.Jobs) == 0 || t.Makespan <= 0 || width < 20 {
		return "(empty timeline)\n"
	}
	scale := float64(width) / t.Makespan
	col := func(sec float64) int {
		c := int(sec * scale)
		if c >= width {
			c = width - 1
		}
		return c
	}
	type lane struct {
		name string
		row  []byte
	}
	mkLane := func(name string) *lane {
		return &lane{name: name, row: []byte(strings.Repeat(".", width))}
	}
	var lanes []*lane
	threadLanes := map[int]*lane{}
	for i := 0; i < threads; i++ {
		l := mkLane(fmt.Sprintf("thread %d", i))
		threadLanes[i] = l
		lanes = append(lanes, l)
	}
	h2d := mkLane("dma h2d")
	d2h := mkLane("dma d2h")
	lanes = append(lanes, h2d, d2h)
	engineLanes := map[int]*lane{}
	for i := 0; i < engines; i++ {
		l := mkLane(fmt.Sprintf("engine %d", i))
		engineLanes[i] = l
		lanes = append(lanes, l)
	}

	fill := func(l *lane, from, to float64, ch byte) {
		if l == nil {
			return
		}
		a, b := col(from), col(to)
		if b <= a {
			b = a + 1
		}
		for i := a; i < b && i < width; i++ {
			l.row[i] = ch
		}
	}
	for _, j := range t.Jobs {
		fill(threadLanes[j.Thread], j.PrepStart, j.PrepEnd, 'P')
		fill(h2d, j.PrepEnd, j.H2DEnd, '>')
		fill(engineLanes[j.Engine], j.ComputeStart, j.ComputeEnd, '#')
		fill(d2h, j.ComputeEnd, j.D2HEnd, '<')
		fill(threadLanes[j.Thread], j.D2HEnd, j.PostEnd, 'p')
	}

	var b strings.Builder
	fmt.Fprintf(&b, "makespan %.2f ms  (P=prep  >=h2d  #=compute  <=d2h  p=post)\n", t.Makespan*1e3)
	for _, l := range lanes {
		fmt.Fprintf(&b, "%-9s |%s|\n", l.name, l.row)
	}
	return b.String()
}
