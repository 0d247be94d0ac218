package engine

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"lpath/internal/corpus"
	"lpath/internal/lpath"
	"lpath/internal/relstore"
)

// distinctTemplates are the benchmark's serve_distinct axis templates.
var distinctTemplates = []string{
	"//%s/%s", "//%s//%s", "//%s->%s", "//%s-->%s", "//%s=>%s", "//%s==>%s",
	"//%s{/%s$}", "//%s{//^%s}", "//%s[//%s]", "//%s[not(//%s)]",
}

// TestEmptyProofsAreSound checks the planner's empty proofs against the
// unplanned engine, which never consults the tag-pair summary: over the
// scale-0.05 WSJ corpus's 30 most frequent plain tags, every text of the ten
// templates × 30 × 30 that the plan proves empty counts 0, and every
// template whose axis the summary holds gets at least one proof. Every
// predicate it proves vacuous changes no count.
func TestEmptyProofsAreSound(t *testing.T) {
	tc := corpus.Generate(corpus.Config{Profile: corpus.WSJ, Scale: 0.05, Seed: 42})
	s := relstore.Build(tc, relstore.SchemeInterval)
	planned, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(s, WithoutPlanner())
	if err != nil {
		t.Fatal(err)
	}
	plain := regexp.MustCompile(`^[A-Z][A-Z0-9-]*$`)
	var tags []string
	for _, tf := range tc.TopTags(240) {
		if _, err := lpath.Parse("//" + tf.Tag); err == nil && plain.MatchString(tf.Tag) && len(tags) < 30 {
			tags = append(tags, tf.Tag)
		}
	}
	ctx := context.Background()
	for _, tpl := range distinctTemplates {
		proved := 0
		for _, a := range tags {
			for _, b := range tags {
				text := fmt.Sprintf(tpl, a, b)
				p := lpath.MustParse(text)
				plan := planned.Plan(p)
				if plan.Empty == "" {
					continue
				}
				proved++
				if n, err := ref.CountPlanContext(ctx, p, nil); err != nil || n != 0 {
					t.Errorf("%s proved empty (%s), unplanned count %d, %v", text, plan.Empty, n, err)
				}
				if res, err := planned.Run(ctx, p, plan, Spec{}); err != nil || res.Matches == nil || res.Count != 0 {
					t.Errorf("%s: proved-empty select gave %+v, %v", text, res, err)
				}
			}
		}
		t.Logf("%-18s %4d of %d proved empty", tpl, proved, len(tags)*len(tags))
		if proved == 0 && !strings.Contains(tpl, "->") && !strings.Contains(tpl, "not(") {
			t.Errorf("%s: no text proved empty", tpl)
		}
	}

	// Vacuous predicates: a text whose predicate the plan proves true on
	// every row of its step counts, unplanned and planned, what the text
	// without the predicate counts unplanned. The three-tag shapes run over
	// the ten most frequent tags.
	for _, tpl := range []string{"//%s[not(//%s)]", "//%s[//%s or not(//%s)]", "//%s[not(//%s) and not(//%s)]"} {
		type text struct{ text, head string }
		var texts []text
		pool, three := tags, strings.Count(tpl, "%s") == 3
		if three {
			pool = tags[:10]
		}
		for _, a := range pool {
			for _, b := range pool {
				if !three {
					texts = append(texts, text{fmt.Sprintf(tpl, a, b), a})
					continue
				}
				for _, c := range pool {
					texts = append(texts, text{fmt.Sprintf(tpl, a, b, c), a})
				}
			}
		}
		proved := 0
		for _, tt := range texts {
			p := lpath.MustParse(tt.text)
			plan := planned.Plan(p)
			why := plan.Step(&p.Steps[0]).Preds[0].Vacuous
			if plan.Empty != "" || why == "" {
				continue
			}
			proved++
			want, err := ref.CountPlanContext(ctx, lpath.MustParse("//"+tt.head), nil)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := ref.CountPlanContext(ctx, p, nil); err != nil || n != want {
				t.Errorf("%s proved vacuous (%s): unplanned count %d, %v; //%s counts %d", tt.text, why, n, err, tt.head, want)
			}
			if n, err := planned.CountPlanContext(ctx, p, plan); err != nil || n != want {
				t.Errorf("%s proved vacuous: planned count %d, %v; //%s counts %d", tt.text, n, err, tt.head, want)
			}
		}
		t.Logf("%-30s %4d of %d proved vacuous", tpl, proved, len(texts))
		if proved == 0 {
			t.Errorf("%s: no text proved vacuous", tpl)
		}
	}
}
