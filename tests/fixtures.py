"""Shared test data: sample clinical abstract texts, a synthetic
memorization corpus small enough to overfit on a laptop, and a writer for
the labeled-sentence corpus format."""

# Space-tokenized sentences in the style of the trial-abstract corpus.
SAMPLE_CLINICAL_TEXTS = [
    "Varenicline is believed to work , in part , by reducing craving responses"
    " to smoking cues and by reducing general levels of craving ; however ,"
    " these hypotheses have never been evaluated with craving assessed in the"
    " natural environments of treatment-seeking smokers .",
    "Ecological momentary assessment procedures were used to assess the impact"
    " of varenicline on cue-specific and general craving in treatment-seeking"
    " smokers prior to quitting .",
    "During all phases , smoking cues elicited greater craving than neutral"
    " cues ; the magnitude of this effect declined after the first week .",
    "Smoking cues delivered in the natural environment elicited strong craving"
    " responses in treatment-seeking smokers , but cue-specific craving was not"
    " affected by varenicline administered prior to the quit attempt .",
    "smoking cues are associated with a greater craving in general , and may"
    " be associated with a greater decline in general craving and",
    "Varenicline did not reduce general craving in treatment-seeking smokers"
    " prior to quitting.",
    "Smoking cues are associated with greater general craving than neutral"
    " cues, and varenicline does not attenuate cue-specific craving.",
    "Proton pump inhibitor ( PPI ) therapy is considered as the first choice"
    " for treatment of non-erosive reflux disease ( NERD ) .",
    "Both roxatidine and omeprazole significantly improved the heartburn score"
    " at 4 and 8 weeks . The clinical response rates did not differ between"
    " roxatidine and omeprazole .",
    "Roxatidine relieved the symptoms of NERD patients with similar"
    " effectiveness to omeprazole . Therefore , roxatidine may be a good"
    " choice for NERD treatment .",
    "Roxatidine and omeprazole are effective in relieving symptoms of NERD in"
    " Japanese patients.",
    "To evaluate the efficacy of oxcarbazepine ( OXC ) in the treatment of"
    " agitation and aggression in patients with Alzheimer 's disease ,"
    " vascular dementia or both .",
    "After 8 weeks , no statistically significant differences were found"
    " between the 2 groups for all outcomes . A trend was observed in favor of"
    " the OXC group in the reduction in the scores on the BARS ( p = 0.07 ) .",
    "This study found no significant effect of OXC in treatment of agitation"
    " and aggression in patients with dementia .",
    "OXC was not effective in the treatment of agitation and aggression in"
    " patients with Alzheimer's disease, vascular dementia or both.",
    "This study suggests that OXC is effective in the treatment of agitation"
    " and aggression in patients with Alzheimer's disease.",
    "Atrial fibrillation ( AF ) is the most common complication following"
    " coronary artery bypass graft ( CABG ) .",
    "In Group A , 8 of the 15 patients ( 53 % ) converted from AF to sinus"
    " rhythm within 15 min of theophylline administration .",
    "The mechanism of AF after CABG is not well defined and is probably"
    " multifactorial . However , this study demonstrated that antagonism of"
    " the adenosine A1 receptor can promptly convert many of these patients"
    " back to sinus rhythm , and thereby implicates endogenously released"
    " adenosine in a mechanistic role for inciting early ( < 48 h )"
    " post-CABG AF .",
    "Intravenous theophylline, via adenosine A1 receptor antagonism, did not"
    " improve early AF in patients post CABG.",
    "The results of this study suggest that intravenous theophylline, via"
    " adenosine A1 receptor antagonism, may correct or modify early AF in"
    " patients post CABG.",
]

# 16 synthetic source/conclusion pairs with a shared template and a unique
# drug/outcome pattern per pair, built to be memorized exactly.
_DRUGS = [
    "alphacillin", "betamab", "gammazole", "deltaprol",
    "epsilorin", "zetativ", "etaxane", "thetasone",
    "iotafen", "kappanib", "lambdavir", "mumycin",
    "nuprazol", "xicaine", "omicromab", "pivastin",
]
_OUTCOMES = [
    ("reduced pain scores", "improved pain control"),
    ("lowered blood pressure", "controlled hypertension"),
    ("shortened hospital stays", "sped up recovery"),
    ("reduced seizure frequency", "prevented seizures"),
    ("improved sleep quality", "treated insomnia"),
    ("decreased tumor size", "slowed tumor growth"),
    ("raised survival rates", "extended survival"),
    ("eased joint stiffness", "relieved arthritis"),
    ("cut infection rates", "prevented infections"),
    ("improved lung function", "helped breathing"),
    ("reduced nausea episodes", "controlled nausea"),
    ("lowered cholesterol levels", "improved lipid profiles"),
    ("stabilized heart rhythm", "prevented arrhythmia"),
    ("reduced swelling", "treated edema"),
    ("improved wound healing", "closed chronic wounds"),
    ("decreased anxiety scores", "relieved anxiety"),
]


def memorization_pairs():
    """16 (source, target) pairs for the end-to-end overfit run."""
    pairs = []
    for drug, (effect, benefit) in zip(_DRUGS, _OUTCOMES):
        source = (
            f"Patients were randomized to {drug} or placebo . "
            f"Treatment with {drug} significantly {effect} compared with placebo ."
        )
        target = f"{drug} {benefit} and was well tolerated ."
        pairs.append((source, target))
    return pairs


def serialize_corpus(abstracts) -> str:
    """Inverse of data.parse_corpus for well-formed (upper-case label) files."""
    records = []
    for abstract in abstracts:
        lines = [f"###{abstract.pmid}"]
        lines.extend(f"{label}\t{text}" for label, text in abstract.sentences)
        records.append("\n".join(lines))
    return "\n\n".join(records) + "\n"
