#include "qa/nl2sql.h"

#include <algorithm>
#include <cctype>

#include "common/string_util.h"

namespace easytime::qa {

namespace {

/// Characteristic thresholds shared with tsdata::Characteristics.
constexpr double kSeasonalityThreshold = 0.64;
constexpr double kTrendThreshold = 0.6;
constexpr double kStationarityThreshold = 0.5;
constexpr double kShiftingThreshold = 0.5;
constexpr double kTransitionThreshold = 0.5;
/// Horizon boundary between short- and long-term questions.
constexpr int kLongHorizon = 24;

/// Extracts a trailing integer from phrases like "top-8", "top 8", "best 3".
bool FindTopK(const std::string& q, size_t* k) {
  for (const char* prefix : {"top-", "top ", "best "}) {
    size_t pos = q.find(prefix);
    while (pos != std::string::npos) {
      size_t digit = pos + std::string(prefix).size();
      if (digit < q.size() && std::isdigit(static_cast<unsigned char>(q[digit]))) {
        *k = 0;
        while (digit < q.size() &&
               std::isdigit(static_cast<unsigned char>(q[digit]))) {
          *k = *k * 10 + static_cast<size_t>(q[digit] - '0');
          ++digit;
        }
        if (*k > 0) return true;
      }
      pos = q.find(prefix, pos + 1);
    }
  }
  return false;
}

/// True when \p word occurs in \p q delimited by non-identifier characters
/// (letters, digits and '_' continue a word).
bool ContainsWord(const std::string& q, const std::string& word) {
  auto is_word_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  for (size_t pos = q.find(word); pos != std::string::npos;
       pos = q.find(word, pos + 1)) {
    const size_t after = pos + word.size();
    if ((pos == 0 || !is_word_char(q[pos - 1])) &&
        (after == q.size() || !is_word_char(q[after]))) {
      return true;
    }
  }
  return false;
}

/// Finds a metric mention; \p found reports whether the question named one.
std::string FindMetric(const std::string& q, bool* found) {
  struct Synonym {
    const char* phrase;
    const char* metric;
  };
  static const Synonym kSynonyms[] = {
      {"smape", "smape"}, {"mape", "mape"},   {"rmse", "rmse"},
      {"mse", "mse"},     {"mase", "mase"},   {"wape", "wape"},
      {"r2", "r2"},       {"r-squared", "r2"}, {"mae", "mae"},
      {"mean absolute error", "mae"}, {"squared error", "mse"},
  };
  for (const auto& s : kSynonyms) {
    if (q.find(s.phrase) != std::string::npos) {
      if (found) *found = true;
      return s.metric;
    }
  }
  if (found) *found = false;
  return "mae";
}

QuestionFilters FindFilters(const std::string& q,
                            const std::vector<std::string>& domains) {
  QuestionFilters f;
  if (q.find("multivariate") != std::string::npos) f.want_multivariate = true;
  if (q.find("univariate") != std::string::npos) f.want_univariate = true;
  if (q.find("trend") != std::string::npos) f.with_trend = true;
  // Whole words only: the method name seasonal_naive is not a filter.
  if (ContainsWord(q, "seasonal") || ContainsWord(q, "seasonality")) {
    f.with_seasonality = true;
  }
  if (q.find("non-stationary") != std::string::npos ||
      q.find("nonstationary") != std::string::npos ||
      q.find("non stationary") != std::string::npos) {
    f.non_stationary = true;
  } else if (q.find("stationary") != std::string::npos) {
    f.stationary = true;
  }
  if (q.find("shift") != std::string::npos) f.with_shifting = true;
  if (q.find("transition") != std::string::npos) f.with_transition = true;
  if (q.find("long term") != std::string::npos ||
      q.find("long-term") != std::string::npos) {
    f.horizon_class = "long";
  } else if (q.find("short term") != std::string::npos ||
             q.find("short-term") != std::string::npos) {
    f.horizon_class = "short";
  }
  for (const auto& d : domains) {
    if (q.find(ToLower(d)) != std::string::npos) {
      f.domain = d;
      break;
    }
  }
  return f;
}

/// WHERE fragments against the datasets table alias "d".
std::vector<std::string> DatasetPredicates(const QuestionFilters& f) {
  std::vector<std::string> preds;
  if (f.want_multivariate) preds.push_back("d.multivariate = 1");
  if (f.want_univariate) preds.push_back("d.multivariate = 0");
  if (f.with_trend) {
    preds.push_back("d.trend > " + FormatDouble(kTrendThreshold, 2));
  }
  if (f.with_seasonality) {
    preds.push_back("d.seasonality > " +
                    FormatDouble(kSeasonalityThreshold, 2));
  }
  if (f.stationary) {
    preds.push_back("d.stationarity > " +
                    FormatDouble(kStationarityThreshold, 2));
  }
  if (f.non_stationary) {
    preds.push_back("d.stationarity <= " +
                    FormatDouble(kStationarityThreshold, 2));
  }
  if (f.with_shifting) {
    preds.push_back("d.shifting > " + FormatDouble(kShiftingThreshold, 2));
  }
  if (f.with_transition) {
    preds.push_back("d.transition > " + FormatDouble(kTransitionThreshold, 2));
  }
  if (!f.domain.empty()) preds.push_back("d.domain = '" + f.domain + "'");
  return preds;
}

std::vector<std::string> ResultPredicates(const QuestionFilters& f,
                                          const std::string& metric) {
  std::vector<std::string> preds;
  preds.push_back("r.metric = '" + metric + "'");
  if (f.horizon_class == "long") {
    preds.push_back("r.horizon >= " + std::to_string(kLongHorizon));
  } else if (f.horizon_class == "short") {
    preds.push_back("r.horizon < " + std::to_string(kLongHorizon));
  }
  return preds;
}

std::string WhereClause(std::vector<std::string> preds) {
  if (preds.empty()) return "";
  std::string out = " WHERE " + preds[0];
  for (size_t i = 1; i < preds.size(); ++i) out += " AND " + preds[i];
  return out;
}

/// Strips the "d." qualifier for queries over the datasets table alone.
std::string Unqualified(std::string clause) {
  size_t pos;
  while ((pos = clause.find("d.")) != std::string::npos) clause.erase(pos, 2);
  return clause;
}

/// Finds registered method names mentioned in the question (word-boundary
/// aware enough for snake_case identifiers).
std::vector<std::string> FindMethods(const std::string& q,
                                     const std::vector<std::string>& methods) {
  std::vector<std::string> found;
  for (const auto& m : methods) {
    size_t pos = q.find(ToLower(m));
    while (pos != std::string::npos) {
      bool left_ok = pos == 0 || !(std::isalnum(static_cast<unsigned char>(
                                       q[pos - 1])) ||
                                   q[pos - 1] == '_');
      size_t endp = pos + m.size();
      bool right_ok = endp >= q.size() ||
                      !(std::isalnum(static_cast<unsigned char>(q[endp])) ||
                        q[endp] == '_');
      if (left_ok && right_ok) {
        found.push_back(m);
        break;
      }
      pos = q.find(ToLower(m), pos + 1);
    }
  }
  return found;
}

bool ContainsAny(const std::string& q,
                 std::initializer_list<const char*> phrases) {
  for (const char* p : phrases) {
    if (q.find(p) != std::string::npos) return true;
  }
  return false;
}

/// Generates the SQL for an intent + slot assignment. Kept separate from
/// detection so follow-up questions can overlay slots and regenerate.
easytime::Status BuildSql(TranslatedQuestion* t) {
  const std::string kJoin =
      "FROM results r JOIN datasets d ON r.dataset = d.name";
  std::string order_dir = t->metric == "r2" ? "DESC" : "ASC";

  switch (t->intent) {
    case QuestionIntent::kListMethods:
      t->sql =
          "SELECT name, family, description FROM methods "
          "ORDER BY family, name";
      return Status::OK();
    case QuestionIntent::kDomainBreakdown:
      t->sql =
          "SELECT domain, COUNT(*) AS dataset_count FROM datasets "
          "GROUP BY domain ORDER BY dataset_count DESC";
      return Status::OK();
    case QuestionIntent::kCountDatasets:
      t->sql = "SELECT COUNT(*) AS dataset_count FROM datasets" +
               Unqualified(WhereClause(DatasetPredicates(t->filters)));
      return Status::OK();
    case QuestionIntent::kListDatasets:
      t->sql = "SELECT name, domain, length FROM datasets" +
               Unqualified(WhereClause(DatasetPredicates(t->filters))) +
               " ORDER BY name";
      return Status::OK();
    case QuestionIntent::kCompareMethods: {
      if (t->mentioned_methods.size() < 2) {
        return Status::InvalidArgument(
            "a comparison question must name two methods");
      }
      auto preds = ResultPredicates(t->filters, t->metric);
      auto dpreds = DatasetPredicates(t->filters);
      preds.insert(preds.end(), dpreds.begin(), dpreds.end());
      preds.push_back("r.method IN ('" + t->mentioned_methods[0] + "', '" +
                      t->mentioned_methods[1] + "')");
      t->sql = "SELECT r.method, AVG(r.value) AS avg_" + t->metric + " " +
               kJoin + WhereClause(preds) +
               " GROUP BY r.method ORDER BY avg_" + t->metric + " " +
               order_dir;
      return Status::OK();
    }
    case QuestionIntent::kMethodAverage: {
      if (t->mentioned_methods.empty()) {
        return Status::InvalidArgument(
            "an average question must name a method");
      }
      auto preds = ResultPredicates(t->filters, t->metric);
      auto dpreds = DatasetPredicates(t->filters);
      preds.insert(preds.end(), dpreds.begin(), dpreds.end());
      preds.push_back("r.method = '" + t->mentioned_methods[0] + "'");
      t->sql = "SELECT r.method, AVG(r.value) AS avg_" + t->metric +
               ", COUNT(*) AS runs " + kJoin + WhereClause(preds) +
               " GROUP BY r.method";
      return Status::OK();
    }
    case QuestionIntent::kTopKMethods: {
      auto preds = ResultPredicates(t->filters, t->metric);
      auto dpreds = DatasetPredicates(t->filters);
      preds.insert(preds.end(), dpreds.begin(), dpreds.end());
      t->sql = "SELECT r.method, AVG(r.value) AS avg_" + t->metric + " " +
               kJoin + WhereClause(preds) +
               " GROUP BY r.method ORDER BY avg_" + t->metric + " " +
               order_dir + " LIMIT " + std::to_string(t->top_k);
      return Status::OK();
    }
    case QuestionIntent::kFamilyRanking: {
      auto preds = ResultPredicates(t->filters, t->metric);
      auto dpreds = DatasetPredicates(t->filters);
      preds.insert(preds.end(), dpreds.begin(), dpreds.end());
      t->sql = "SELECT m.family, AVG(r.value) AS avg_" + t->metric + " " +
               kJoin + " JOIN methods m ON r.method = m.name" +
               WhereClause(preds) + " GROUP BY m.family ORDER BY avg_" +
               t->metric + " " + order_dir;
      return Status::OK();
    }
  }
  return Status::Internal("unreachable intent");
}

/// Merges slots found in a follow-up question over the inherited ones.
void OverlaySlots(const std::string& q, const QuestionFilters& fresh,
                  bool metric_found, const std::string& metric, size_t top_k,
                  bool top_k_found,
                  const std::vector<std::string>& mentioned,
                  TranslatedQuestion* t) {
  if (metric_found) t->metric = metric;
  if (top_k_found) t->top_k = top_k;
  if (!mentioned.empty()) t->mentioned_methods = mentioned;

  QuestionFilters& f = t->filters;
  if (!fresh.horizon_class.empty()) f.horizon_class = fresh.horizon_class;
  if (!fresh.domain.empty()) f.domain = fresh.domain;
  if (fresh.want_multivariate) {
    f.want_multivariate = true;
    f.want_univariate = false;
  }
  if (fresh.want_univariate) {
    f.want_univariate = true;
    f.want_multivariate = false;
  }
  if (fresh.with_trend) f.with_trend = true;
  if (fresh.with_seasonality) f.with_seasonality = true;
  if (fresh.stationary) {
    f.stationary = true;
    f.non_stationary = false;
  }
  if (fresh.non_stationary) {
    f.non_stationary = true;
    f.stationary = false;
  }
  if (fresh.with_shifting) f.with_shifting = true;
  if (fresh.with_transition) f.with_transition = true;
  (void)q;
}

bool LooksLikeFollowUp(const std::string& q) {
  return ContainsAny(q, {"what about", "how about", "and for", "and on",
                         "same but", "same for", "what if"}) ||
         StartsWith(q, "and ") || StartsWith(q, "now ");
}

}  // namespace

std::string DescribeFilters(const QuestionFilters& f) {
  std::vector<std::string> parts;
  if (f.want_multivariate) parts.push_back("multivariate");
  if (f.want_univariate) parts.push_back("univariate");
  if (!f.domain.empty()) parts.push_back(f.domain + "-domain");
  if (f.with_trend) parts.push_back("trending");
  if (f.with_seasonality) parts.push_back("seasonal");
  if (f.stationary) parts.push_back("stationary");
  if (f.non_stationary) parts.push_back("non-stationary");
  if (f.with_shifting) parts.push_back("shifting");
  if (f.with_transition) parts.push_back("transitioning");
  std::string out =
      parts.empty() ? "all datasets" : Join(parts, ", ") + " datasets";
  if (f.horizon_class == "long") out += ", long-term horizons";
  if (f.horizon_class == "short") out += ", short-term horizons";
  return out;
}

easytime::Result<TranslatedQuestion> TranslateQuestion(
    const std::string& question, const std::vector<std::string>& known_methods,
    const std::vector<std::string>& known_domains,
    const TranslatedQuestion* previous) {
  std::string q = ToLower(Trim(question));
  if (q.empty()) return Status::InvalidArgument("empty question");

  bool metric_found = false;
  std::string metric = FindMetric(q, &metric_found);
  QuestionFilters filters = FindFilters(q, known_domains);
  std::vector<std::string> mentioned = FindMethods(q, known_methods);
  size_t top_k = 5;
  bool top_k_found = FindTopK(q, &top_k);

  // Follow-up path: inherit the previous question and overlay new slots.
  if (previous != nullptr && LooksLikeFollowUp(q)) {
    TranslatedQuestion t = *previous;
    OverlaySlots(q, filters, metric_found, metric, top_k, top_k_found,
                 mentioned, &t);
    EASYTIME_RETURN_IF_ERROR(BuildSql(&t));
    return t;
  }

  TranslatedQuestion t;
  t.metric = metric;
  t.filters = filters;
  t.mentioned_methods = mentioned;

  // ---- intent detection (most specific first) ----
  if (ContainsAny(q, {"methods are available", "list methods",
                      "available methods", "what methods", "which methods are",
                      "supported methods"}) &&
      !ContainsAny(q, {"top", "best"})) {
    t.intent = QuestionIntent::kListMethods;
  } else if (ContainsAny(q, {"per domain", "by domain", "each domain",
                             "domains are covered", "which domains"})) {
    t.intent = QuestionIntent::kDomainBreakdown;
  } else if (ContainsAny(q, {"family", "families",
                             "statistical or deep", "deep or statistical",
                             "statistical or machine"})) {
    t.intent = QuestionIntent::kFamilyRanking;
  } else if (ContainsAny(q, {"how many datasets", "number of datasets",
                             "count of datasets"})) {
    t.intent = QuestionIntent::kCountDatasets;
  } else if (ContainsAny(q, {"list all datasets", "list datasets",
                             "which datasets", "show datasets",
                             "list all multivariate datasets",
                             "list the datasets"})) {
    t.intent = QuestionIntent::kListDatasets;
  } else if (t.mentioned_methods.size() >= 2 &&
             ContainsAny(q, {"better", "worse", " or ", "versus", " vs "})) {
    t.intent = QuestionIntent::kCompareMethods;
  } else if (t.mentioned_methods.size() == 1 &&
             ContainsAny(q, {"average", "mean", "what is the"}) &&
             !ContainsAny(q, {"top", "best method", "which method"})) {
    t.intent = QuestionIntent::kMethodAverage;
  } else if (ContainsAny(q, {"top", "best", "which method", "what method",
                             "rank", "most accurate"})) {
    t.intent = QuestionIntent::kTopKMethods;
    if (top_k_found) {
      t.top_k = top_k;
    } else if (ContainsAny(q, {"best method", "which method", "what method",
                               "most accurate"})) {
      t.top_k = 1;
    } else {
      t.top_k = 5;
    }
  } else {
    return Status::InvalidArgument(
        "question is outside the supported scope; try e.g. \"What are the "
        "top-5 methods by MAE on multivariate datasets with trends?\"");
  }

  EASYTIME_RETURN_IF_ERROR(BuildSql(&t));
  return t;
}

}  // namespace easytime::qa
