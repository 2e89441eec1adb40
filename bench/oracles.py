"""Independent checks of CLI output documents.

Nothing here calls the program under test.  Each check recomputes what the
answer must satisfy with plain numpy: reference pseudoinverses from
``numpy.linalg.pinv``, closed-form vector inverses, the Penrose conditions,
the sl2 relations, the Jordan-pair equations, the form conditions of
``homform``, heights from the generating Jordan type, and orbit labels from
the generator.  ``check`` returns ``None`` for a correct answer and a short
reason otherwise.
"""

from __future__ import annotations

import numpy as np

from workloads import Job, q_embed

# Reference and program agree to ~1e-13 on these inputs (condition numbers
# <= 10 on the nonzero spectrum); 1e-9 leaves room for that and still catches
# a single entry moved by 1e-6 of the answer's scale.
MATCH_TOL = 1e-9
RESIDUAL_TOL = 1e-8


def dec_complex(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    raise ValueError(f"not a complex array of shape {arr.shape}")


def _rel(x, ref) -> float:
    x = np.asarray(x)
    ref = np.asarray(ref)
    if x.shape != ref.shape:
        return np.inf
    scale = np.abs(ref).max() if ref.size else 0.0
    return float(np.abs(x - ref).max() / scale) if scale else float(np.abs(x).max(initial=0.0))


def _fro(x) -> float:
    return float(np.linalg.norm(x))


def penrose(a: np.ndarray, x: np.ndarray) -> float:
    ax, xa = a @ x, x @ a
    return max(
        _fro(ax @ a - a) / (1 + _fro(a)),
        _fro(xa @ x - x) / (1 + _fro(x)),
        _fro(ax - ax.conj().T) / (1 + _fro(ax)),
        _fro(xa - xa.conj().T) / (1 + _fro(xa)),
    )


def sl2_residual(e, h, f) -> float:
    scale = 1 + _fro(e) + _fro(h) + _fro(f)
    br = lambda x, y: x @ y - y @ x  # noqa: E731
    return max(_fro(br(e, f) - h), _fro(br(h, e) - 2 * e), _fro(br(h, f) + 2 * f)) / scale


def pair_residual(a, x) -> float:
    """Jordan-pair equations {a x a} = a, {x a x} = x with {x,y,z} = [[x,y],z]/2."""
    br = lambda x, y: x @ y - y @ x  # noqa: E731
    return max(
        _fro(br(br(a, x), a) / 2 - a) / (1 + _fro(a)),
        _fro(br(br(x, a), x) / 2 - x) / (1 + _fro(x)),
    )


def _pinv_like(job: Job, result) -> str | None:
    kind = job.expect.get("kind", "complex")
    ref = job.expect["pinv"]
    if kind == "quaternion":
        x = np.asarray(result, dtype=float)
        a_c, x_c = q_embed(job.expect["a"]), q_embed(x)
    elif kind == "real":
        x = np.asarray(result, dtype=float)
        a_c, x_c = job.expect["a"].astype(complex), x.astype(complex)
    else:
        x = dec_complex(result)
        a_c, x_c = job.expect["a"], x
    if _rel(x, ref) > MATCH_TOL:
        return f"pinv differs from numpy.linalg.pinv by {_rel(x, ref):.2e}"
    if penrose(a_c, x_c) > RESIDUAL_TOL:
        return f"Penrose residual {penrose(a_c, x_c):.2e}"
    return None


def check_pinv(job: Job, out: dict) -> str | None:
    return _pinv_like(job, out["result"]["pinv"])


def check_hermitian_pinv(job: Job, out: dict) -> str | None:
    bad = _pinv_like(job, out["result"]["pinv"])
    if bad:
        return bad
    if job.expect["kind"] == "complex":
        x = dec_complex(out["result"]["pinv"])
        sign = -1.0 if job.expect["skew"] else 1.0
        if _fro(x - sign * x.conj().T) > RESIDUAL_TOL * (1 + _fro(x)):
            return "inverse left its Hermitian class"
    return None


def check_form_pinv(job: Job, out: dict) -> str | None:
    res = out["result"]
    if res["symmetry"] != job.expect["symmetry"]:
        return "symmetry class changed"
    w_plus = dec_complex(res["gram"])
    if _rel(w_plus, job.expect["pinv"]) > MATCH_TOL:
        return f"inverse Gram differs from numpy.linalg.pinv by {_rel(w_plus, job.expect['pinv']):.2e}"
    if penrose(job.expect["a"], w_plus) > RESIDUAL_TOL:
        return "Penrose residual of the Gram matrices"
    return None


def check_complex_pinv(job: Job, out: dict) -> str | None:
    res = out["result"]
    maps = [dec_complex(m) for m in res["maps"]]
    refs = job.expect["pinv"][::-1]
    if res["ranks"] != job.expect["ranks"] or len(maps) != len(refs):
        return f"ranks {res['ranks']} != {job.expect['ranks']}"
    for got, ref in zip(maps, refs):
        if _rel(got, ref) > MATCH_TOL:
            return f"component inverse differs by {_rel(got, ref):.2e}"
    for left, right in zip(maps, maps[1:]):
        if _fro(left @ right) > RESIDUAL_TOL * (1 + _fro(left) * _fro(right)):
            return "inverse chain is not a complex"
    return None


def check_vector_pinv(job: Job, out: dict) -> str | None:
    w = dec_complex(out["result"]["pinv"])
    err = _rel(w, job.expect["pinv"])
    return None if err <= MATCH_TOL else f"vector inverse differs by {err:.2e}"


def check_pseudo_pinv(job: Job, out: dict) -> str | None:
    v = job.expect["v"]
    p, q = job.expect["signature"]
    iv = np.concatenate([v[:p], -v[p:]])
    pseudo, euclid = float(v @ iv), float(v @ v)
    ref = -v / pseudo if abs(pseudo) > 1e-9 * euclid else -iv / (2 * euclid)
    w = np.asarray(out["result"]["pinv"], dtype=float)
    err = _rel(w, ref)
    return None if err <= MATCH_TOL else f"pseudo-Euclidean inverse differs by {err:.2e}"


def check_homform(job: Job, out: dict) -> str | None:
    exp = job.expect
    if job.exit_code == 3:
        label = out.get("orbit")
        cert = out.get("certificate")
        if label != {"a": exp["a"], "b": exp["b"]}:
            return f"orbit label {label} != ({exp['a']}, {exp['b']})"
        if not (isinstance(cert, (int, float)) and 0 < cert < np.inf):
            return f"certificate {cert!r} is not positive"
        return None
    res = out["result"]
    if res["orbit"] != {"a": exp["a"], "b": exp["b"]}:
        return f"orbit label {res['orbit']} != ({exp['a']}, {exp['b']})"
    f, g, w = exp["map"], dec_complex(res["inverse"]), exp["gram"]
    if g.shape != (f.shape[1], f.shape[0]):
        return "inverse has the wrong shape"
    gf, fg = g @ f, f @ g
    fg_sharp = np.linalg.solve(w, fg.T @ w)
    diff = fg - fg_sharp
    worst = max(
        _fro(gf - gf.conj().T) / (1 + _fro(gf)),
        _fro(diff - diff.conj().T) / (1 + _fro(diff)),
        _fro(2 * fg @ f - fg_sharp @ f - f) / (1 + _fro(f)),
        _fro(2 * g @ fg - g @ fg_sharp - g) / (1 + _fro(g)),
    )
    return None if worst <= RESIDUAL_TOL else f"form conditions fail by {worst:.2e}"


def check_sl2(job: Job, out: dict) -> str | None:
    res = out["result"]
    e, f = job.expect["e"], job.expect["f"]
    if job.command == "mp-element":
        if res["is_mp_element"] is not job.expect["mp"]:
            return f"is_mp_element {res['is_mp_element']} != {job.expect['mp']}"
        if not res["hermitian_defect"] <= RESIDUAL_TOL:
            return f"Hermitian defect {res['hermitian_defect']:.2e} of a characteristic"
        return None
    e_out, h, f_out = (dec_complex(res[k]) for k in ("e", "h", "f"))
    if _rel(e_out, e) > MATCH_TOL:
        return "e was not echoed"
    if _rel(f_out, f) > MATCH_TOL:
        return f"f differs from the reference inverse by {_rel(f_out, f):.2e}"
    if sl2_residual(e_out, h, f_out) > RESIDUAL_TOL:
        return f"sl2 relations fail by {sl2_residual(e_out, h, f_out):.2e}"
    if _fro(h - h.conj().T) > RESIDUAL_TOL * (1 + _fro(h)) or res["is_hermitian"] is not True:
        return "characteristic is not Hermitian"
    return None


def check_height(job: Job, out: dict) -> str | None:
    res = out["result"]
    want = job.expect["height"]
    if res["height"] != want:
        return f"height {res['height']} != {want}"
    if job.command == "mp-orbit" and res["is_mp_orbit"] is not (want == 2):
        return f"is_mp_orbit {res['is_mp_orbit']} for height {want}"
    return None


def check_jordan(job: Job, out: dict) -> str | None:
    x = dec_complex(out["result"]["inverse"])
    if _rel(x, job.expect["f"]) > MATCH_TOL:
        return f"inverse differs from the reference by {_rel(x, job.expect['f']):.2e}"
    if pair_residual(job.expect["e"], x) > RESIDUAL_TOL:
        return f"pair equations fail by {pair_residual(job.expect['e'], x):.2e}"
    return None


CHECKS = {
    "pinv": check_pinv,
    "hermitian-pinv": check_hermitian_pinv,
    "form-pinv": check_form_pinv,
    "complex-pinv": check_complex_pinv,
    "vector-pinv": check_vector_pinv,
    "pseudo-pinv": check_pseudo_pinv,
    "homform": check_homform,
    "sl2-complete": check_sl2,
    "mp-element": check_sl2,
    "orbit-height": check_height,
    "mp-orbit": check_height,
    "jordan-mp": check_jordan,
}


def known_fault(job: Job, code: int, out: dict | None) -> bool:
    """Whether a failed job failed exactly as its known fault does.

    F2: exit 1 with "f-recovery residual" in the error.  F1: exit 0 with a
    height below the true one.  Any other failure of a fault job is new.
    """
    if job.fault == "F2":
        return code == 1 and "f-recovery residual" in str((out or {}).get("error", ""))
    if job.fault == "F1":
        result = (out or {}).get("result")
        height = result.get("height") if isinstance(result, dict) else None
        return code == 0 and isinstance(height, int) and height < job.expect["height"]
    return False


def check(job: Job, code: int, out: dict | None) -> str | None:
    """None when the job's exit code and output are right, else why not."""
    if code != job.exit_code:
        detail = (out or {}).get("error", "")
        return f"exit {code}, expected {job.exit_code} {detail}".strip()
    if out is None:
        return "no output document"
    try:
        return CHECKS[job.command](job, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
