package main

import (
	"fmt"
	"io"
)

// budget is one workload's table from a traced run: what each layer
// costs in the headline metric's unit, their sum, the end-to-end
// figure, and the remainder no layer accounts for. Detail rows break a
// layer down further and are not added to the sum.
type budget struct {
	Headline          string      `json:"headline"`
	Unit              string      `json:"unit"`
	Rows              []budgetRow `json:"rows"`
	Sum               float64     `json:"sum"`
	EndToEnd          float64     `json:"end_to_end"`
	Unattributed      float64     `json:"unattributed"`
	UnattributedShare float64     `json:"unattributed_share"`
}

type budgetRow struct {
	Layer  string  `json:"layer"`
	Value  float64 `json:"value"`
	Detail bool    `json:"detail,omitempty"`
}

func newBudget(headline, unit string, endToEnd float64, rows ...budgetRow) *budget {
	bg := &budget{Headline: headline, Unit: unit, Rows: rows, EndToEnd: endToEnd}
	for _, r := range rows {
		if !r.Detail {
			bg.Sum += r.Value
		}
	}
	bg.Unattributed = endToEnd - bg.Sum
	bg.UnattributedShare = ratio(bg.Unattributed, endToEnd)
	return bg
}

func (bg *budget) print(w io.Writer) {
	fmt.Fprintf(w, "\nbudget for %s (%s)\n", bg.Headline, bg.Unit)
	for _, r := range bg.Rows {
		name := r.Layer
		if r.Detail {
			name = "  of which " + name
		}
		fmt.Fprintf(w, "  %-44s %12.6g\n", name, r.Value)
	}
	fmt.Fprintf(w, "  %-44s %12.6g\n", "sum of layers", bg.Sum)
	fmt.Fprintf(w, "  %-44s %12.6g\n", "end to end", bg.EndToEnd)
	fmt.Fprintf(w, "  %-44s %12.6g  (%.1f%% of end to end)\n", "unattributed", bg.Unattributed, 100*bg.UnattributedShare)
}
