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
// template whose axis the summary holds gets at least one proof.
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
}
